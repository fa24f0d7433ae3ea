//go:build soak

package simnet

import (
	"testing"
)

// soakBuild widens TestCatalogDeterministic to the catalog's soak entries,
// and to two runs a seed of the thousand-session ones.
const soakBuild = true

// TestScenarioSoak is the nightly-scale stress run: a 60-node mesh where
// every node recodes, 10% loss, a mid-run partition and 30% churn across
// four objects over minutes of virtual time. Build-tagged out of the
// ordinary test run:
//
//	go test -tags soak -run TestScenarioSoak -timeout 30m ./internal/simnet
func TestScenarioSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario skipped in -short mode")
	}
	rep := runScenario(t, "soak", 1)
	if rep.FetchesCrashed == 0 {
		t.Errorf("soak churn crashed nothing")
	}
	if rep.Net.DropPartition == 0 {
		t.Errorf("soak partition dropped no frames")
	}
}

// TestScenarioSoakAsym1k scales the 90/10 asymmetry to 1,000 sessions:
// 900 plain fetchers steered at a 100-node serving tier via gossip.
func TestScenarioSoakAsym1k(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario skipped in -short mode")
	}
	rep := runScenario(t, "asym-90-10-1k", 1)
	if rep.ViewConvergedAt == 0 {
		t.Errorf("views never converged")
	}
}

// TestScenarioSoakMemberChurn1k is sustained 20% churn at 1,000
// sessions: 200 mid-fetch crashes, every replacement joining through 3
// bootstrap nodes.
func TestScenarioSoakMemberChurn1k(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario skipped in -short mode")
	}
	rep := runScenario(t, "member-churn-1k", 1)
	if rep.FetchesCrashed == 0 {
		t.Errorf("churn crashed nothing")
	}
}
