package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ltnc/swarm"
)

type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{"-relay=false"}, &out); err == nil {
		t.Error("source with nothing to serve or push accepted")
	}
	if err := run(ctx, []string{"-listen", "127.0.0.1:0", "-file", "/does/not/exist"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(ctx, []string{"-badflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{"-listen", "127.0.0.1:0", "-k", "-1"}, &out); err == nil {
		t.Error("negative k accepted")
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a:1, ,b:2,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("splitList = %q", got)
	}
	if splitList("") != nil {
		t.Fatal("splitList of empty string not nil")
	}
}

// TestServeCLIThenFetch starts the daemon through its CLI entry point,
// scrapes the announced address and object id off stdout (as an operator
// would) and fetches the object back through the public swarm API.
func TestServeCLIThenFetch(t *testing.T) {
	content := make([]byte, 96*1024)
	rand.New(rand.NewSource(8)).Read(content)
	path := filepath.Join(t.TempDir(), "cli.bin")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &lockedBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0",
			"-file", path,
			"-k", "128",
			"-tick", "500us",
		}, out)
	}()

	addrRe := regexp.MustCompile(`listening on (\S+)`)
	idRe := regexp.MustCompile(`serving ([0-9a-f]{32}) `)
	var addr, idHex string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" || idHex == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced itself; output:\n%s", out.String())
		}
		s := out.String()
		if m := addrRe.FindStringSubmatch(s); m != nil {
			addr = m[1]
		}
		if m := idRe.FindStringSubmatch(s); m != nil {
			idHex = m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	id, err := swarm.ParseObjectID(idHex)
	if err != nil {
		t.Fatal(err)
	}

	client, err := swarm.New(swarm.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	go client.Run(ctx)
	fetchCtx, fcancel := context.WithTimeout(ctx, 60*time.Second)
	defer fcancel()
	got, _, err := client.Fetch(fetchCtx, id, swarm.Addr(addr))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("CLI-served content mismatch")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop on cancel")
	}
	// On the way out: the rows pushed by kind, the whole systematic pass
	// among them, and the rows the link lost — none on loopback.
	var rows, first, repeated, coded, proven, aged int
	m := regexp.MustCompile(`pushed ` + idHex + `: (\d+) rows \((\d+) first-pass, (\d+) repeated, (\d+) coded\), lost (\d+) proven, (\d+) aged`).FindStringSubmatch(out.String())
	if m != nil {
		fmt.Sscan(strings.Join(m[1:], " "), &rows, &first, &repeated, &coded, &proven, &aged)
	}
	if m == nil || first != 128 || rows != first+repeated+coded || proven+aged > rows {
		t.Errorf("rows pushed, as printed on the way out: %v; want k = 128 first-pass rows and kinds that add up; output:\n%s", m, out.String())
	}
}
