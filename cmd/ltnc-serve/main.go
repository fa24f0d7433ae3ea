// Command ltnc-serve runs an LTNC dissemination daemon over UDP: it
// serves content objects it was given, and — the paper's contribution —
// recodes and re-pushes objects it receives from other daemons, acting as
// an intermediary that generates fresh LT-shaped packets from a partial,
// encoded view.
//
// Usage:
//
//	ltnc-serve -listen :4980 -file big.iso [-k 1024] [-peer host:4980,...]
//	ltnc-serve -listen :4981 -peer next-hop:4980        # pure relay
//	ltnc-serve -listen :4982 -bootstrap seed:4980       # join by gossip
//
// Each served file is announced on stdout as "serving <id> <path>"; pass
// the id to ltnc-fetch. The daemon runs until SIGINT/SIGTERM, and on the way
// out prints, per object, the rows it pushed and what its links lost:
// "pushed <id>: N rows (F first-pass, R repeated, C coded), lost P proven,
// A aged".
//
// The command is a thin flag-parsing wrapper over the public ltnc/swarm
// API; everything it does is available to library users.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ltnc/swarm"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ltnc-serve:", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ltnc-serve", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", "127.0.0.1:4980", "UDP listen address")
		files   = fs.String("file", "", "comma-separated files to serve")
		peers   = fs.String("peer", "", "comma-separated push targets (host:port)")
		boot    = fs.String("bootstrap", "", "comma-separated bootstrap addresses: join the swarm's membership plane and discover peers by gossip")
		k       = fs.Int("k", 256, "code length for served files")
		gens    = fs.Int("generations", 0, "coding generations per served file (0 = auto from k; headers and decode state are O(k/G))")
		relay   = fs.Bool("relay", true, "recode and re-push objects learned from peers")
		tick    = fs.Duration("tick", 2*time.Millisecond, "push timer period: the floor under the receipt clock (rows are clocked by the peers' receipt reports)")
		idle    = fs.Duration("idle-timeout", time.Minute, "evict object state idle this long")
		seed    = fs.Int64("seed", 0, "randomness seed (0 = fresh entropy; set for reproducible runs)")
		verbose = fs.Bool("v", false, "log session events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *files == "" && *peers == "" && *boot == "" && !*relay {
		return fmt.Errorf("nothing to do: need -file to serve, -peer to push toward, -bootstrap to join through, or -relay")
	}
	if *k < 1 {
		return fmt.Errorf("k = %d < 1", *k)
	}
	if *gens < 0 {
		return fmt.Errorf("generations = %d < 0", *gens)
	}
	cfg := swarm.Config{
		Listen:      *listen,
		Relay:       *relay,
		Tick:        *tick,
		IdleTimeout: *idle,
		Seed:        *seed,
		Generations: *gens,
	}
	for _, p := range splitList(*peers) {
		cfg.Peers = append(cfg.Peers, swarm.Addr(p))
	}
	for _, b := range splitList(*boot) {
		cfg.Bootstrap = append(cfg.Bootstrap, swarm.Addr(b))
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	s, err := swarm.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Fprintf(out, "listening on %s\n", s.LocalAddr())
	for _, path := range splitList(*files) {
		id, err := s.ServeFile(path, *k)
		if err != nil {
			return fmt.Errorf("serve %s: %w", path, err)
		}
		stats, _ := s.Object(id)
		fmt.Fprintf(out, "serving %s %s (%d bytes, k=%d, G=%d)\n", id, path, stats.Size, stats.K, stats.Generations)
	}
	err = s.Run(ctx)
	// What the daemon pushed, by kind of row: a sender whose peers report
	// their frontiers repairs by repeating natives, one coding blind shows
	// here as coded rows. And what the links lost, by how the sender learnt
	// of it: proven by a receipt's departure count, or aged out.
	for _, o := range s.Stats() {
		if o.Sent > 0 {
			fmt.Fprintf(out, "pushed %s: %d rows (%d first-pass, %d repeated, %d coded), lost %d proven, %d aged\n",
				o.ID, o.Sent, o.Systematic, o.Repeated, o.Sent-o.Systematic-o.Repeated, o.LostProven, o.LostAged)
		}
	}
	return err
}
