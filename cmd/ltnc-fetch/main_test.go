package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ltnc/swarm"
)

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, nil, &out); err == nil {
		t.Error("missing required flags accepted")
	}
	err := run(ctx, []string{"-from", "127.0.0.1:1", "-id", "nothex", "-out", "x"}, &out)
	if err == nil {
		t.Error("malformed object id accepted")
	}
	err = run(ctx, []string{"-from", "127.0.0.1:1", "-id", "abcd", "-out", "x"}, &out)
	if err == nil {
		t.Error("short object id accepted")
	}
}

// TestFetchCLI serves an object through the public swarm API and
// retrieves it through the ltnc-fetch CLI entry point, checking the
// written file and the overhead report.
func TestFetchCLI(t *testing.T) {
	content := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(content)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	server, err := swarm.New(swarm.Config{
		Listen: "127.0.0.1:0",
		Tick:   500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	id, err := server.Serve(content, 128)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- server.Run(ctx) }()

	outPath := filepath.Join(t.TempDir(), "fetched.bin")
	var out bytes.Buffer
	err = run(ctx, []string{
		"-from", string(server.LocalAddr()),
		"-id", id.String(),
		"-out", outPath,
		"-bind", "127.0.0.1:0",
		"-timeout", "60s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("fetched file mismatch")
	}
	if !strings.Contains(out.String(), "overhead") {
		t.Fatalf("report missing overhead: %q", out.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop on cancel")
	}
}
