//go:build !soak

package simnet

// soakBuild is set by the soak build (soak_test.go).
const soakBuild = false
