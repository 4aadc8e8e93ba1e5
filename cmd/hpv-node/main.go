// Command hpv-node runs a HyParView broadcast node over real TCP: the
// deployment the paper deferred to future work (§6), hosting the full
// protocol stack — HyParView membership, flood or Plumtree broadcast, and
// optionally the X-BOT overlay optimizer driven by live RTT measurements.
// Half-open neighbor detection is on by default (-suspect): an active peer
// whose RTT probes go unanswered for 3 consecutive rounds, one per -cycle,
// is suspected and expelled without waiting for a TCP write timeout. A
// neighbor whose connection breaks is a failed neighbor, as the paper's TCP
// failure detector has it (§4.1): it leaves the active view at once, and
// the view is repaired from the passive view.
//
// Start a contact node, then join others to it and type lines to broadcast:
//
//	hpv-node -listen 127.0.0.1:7001 -broadcast plumtree -optimize
//	hpv-node -listen 127.0.0.1:7002 -join 127.0.0.1:7001 -broadcast plumtree -optimize
//	hpv-node -listen 127.0.0.1:7003 -join 127.0.0.1:7001 -broadcast plumtree -optimize
//
// Every line read from stdin is broadcast over the overlay; received
// broadcasts and periodic view snapshots — including delivery/redundancy
// counters and, when optimizing, the mean measured RTT of the active links —
// are printed to stdout.
//
// With -topics the node additionally runs the topic pub/sub router over the
// selected broadcast layer: it subscribes to the listed topics (printing
// deliveries as "<< [topic]"), stdin lines publish to the first listed topic,
// and -publish-rate drives a synthetic feed round-robin across the topics —
// batched on the publish side per -batch / -flush:
//
//	hpv-node -listen 127.0.0.1:7001 -broadcast plumtree -topics 1,2
//	hpv-node -join 127.0.0.1:7001 -broadcast plumtree -topics 1 -publish-rate 50
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyparview/internal/pubsub"
	"hyparview/internal/transport"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdin, os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "hpv-node:", err)
		os.Exit(1)
	}
}

// run hosts one node until stdin closes or a stop signal arrives. It is
// separated from main for testability.
func run(args []string, stdin io.Reader, stdout io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("hpv-node", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "listen address")
		join      = fs.String("join", "", "contact node address (empty = start a new overlay)")
		period    = fs.Duration("cycle", time.Second, "membership cycle period (ΔT)")
		views     = fs.Duration("views", 5*time.Second, "view snapshot print period (0 = off)")
		broadcast = fs.String("broadcast", "flood", "broadcast layer: flood or plumtree")
		optimize  = fs.Bool("optimize", false, "run the X-BOT optimizer over live RTT measurements")
		suspect   = fs.Int("suspect", 3, "consecutive unanswered probes before a neighbor is suspected half-open (0 = off)")
		topicsArg = fs.String("topics", "", "comma-separated topic IDs to subscribe to (enables the pub/sub router)")
		pubRate   = fs.Float64("publish-rate", 0, "synthetic publishes per second, round-robin over -topics (0 = stdin only)")
		batch     = fs.Int("batch", 16, "pub/sub publish-side batch size (messages per frame)")
		flush     = fs.Duration("flush", 20*time.Millisecond, "pub/sub batch flush interval")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	topics, err := parseTopics(*topicsArg)
	if err != nil {
		return err
	}
	if *pubRate > 0 && len(topics) == 0 {
		return fmt.Errorf("-publish-rate needs -topics to publish into")
	}
	var mode transport.BroadcastMode
	switch *broadcast {
	case "flood":
		mode = transport.BroadcastFlood
	case "plumtree":
		mode = transport.BroadcastPlumtree
	default:
		return fmt.Errorf("unknown broadcast layer %q (want flood or plumtree)", *broadcast)
	}

	// Deliveries are printed from whichever goroutine dispatches them, under
	// the agent lock; serialize them with the main loop's prints through a
	// channel.
	delivered := make(chan string, 16)
	echo := func(s string) {
		select {
		case delivered <- s:
		default: // console writer stalled; drop the echo, not the node
		}
	}
	cfg := transport.AgentConfig{
		CyclePeriod:  *period,
		Broadcast:    mode,
		Optimize:     *optimize,
		SuspectAfter: *suspect,
		OnDeliver:    func(p []byte) { echo(string(p)) },
	}
	if len(topics) > 0 {
		cfg.PubSub = &pubsub.Config{
			MaxBatch:      *batch,
			FlushInterval: uint64(*flush / time.Millisecond),
		}
	}
	agent, err := transport.NewAgent(*listen, cfg)
	if err != nil {
		return err
	}
	defer agent.Close()
	fmt.Fprintf(stdout, "node %v listening on %s (broadcast=%s optimize=%v)\n",
		agent.Self(), agent.Addr(), mode, *optimize)
	for _, tp := range topics {
		if err := agent.Subscribe(tp, func(topic uint32, payload []byte, _ int) {
			echo(fmt.Sprintf("[%d] %s", topic, payload))
		}); err != nil {
			return err
		}
	}
	if len(topics) > 0 {
		fmt.Fprintf(stdout, "pub/sub on topics %v (batch=%d flush=%v rate=%g/s)\n",
			topics, *batch, *flush, *pubRate)
	}

	if *join != "" {
		if err := agent.Join(*join); err != nil {
			return fmt.Errorf("join: %w", err)
		}
		fmt.Fprintf(stdout, "joined overlay via %s\n", *join)
	}

	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	var viewTick <-chan time.Time
	if *views > 0 {
		t := time.NewTicker(*views)
		defer t.Stop()
		viewTick = t.C
	}
	var pubTick <-chan time.Time
	if *pubRate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / *pubRate))
		defer t.Stop()
		pubTick = t.C
	}
	seq := 0

	for {
		select {
		case line, ok := <-lines:
			if !ok {
				return nil
			}
			if line == "" {
				continue
			}
			if len(topics) > 0 {
				if err := agent.Publish(topics[0], []byte(line)); err != nil {
					return fmt.Errorf("publish: %w", err)
				}
				continue
			}
			if err := agent.Broadcast([]byte(line)); err != nil {
				return fmt.Errorf("broadcast: %w", err)
			}
		case <-pubTick:
			topic := topics[seq%len(topics)]
			payload := fmt.Sprintf("feed %d @ %s", seq, time.Now().Format(time.RFC3339Nano))
			seq++
			if err := agent.Publish(topic, []byte(payload)); err != nil {
				return fmt.Errorf("publish: %w", err)
			}
		case m := <-delivered:
			fmt.Fprintf(stdout, "<< %s\n", m)
		case <-viewTick:
			fmt.Fprintln(stdout, snapshot(agent))
		case <-stop:
			fmt.Fprintln(stdout, "shutting down")
			return nil
		}
	}
}

// snapshot renders one periodic status line: views, broadcast accounting
// (deliveries, duplicate ratio — the per-node share of the overlay's RMR),
// and the optimizer's live link-cost estimate when enabled.
func snapshot(agent *transport.Agent) string {
	bs := agent.BroadcastStats()
	s := fmt.Sprintf("-- active=%v passive(%d) delivered=%d dup=%d fwd=%d",
		agent.ActiveView(), len(agent.PassiveView()),
		bs.Delivered, bs.Duplicates, bs.Forwarded)
	if ps, ok := agent.PlumtreeStats(); ok {
		s += fmt.Sprintf(" tree[ihave=%d graft=%d prune=%d]",
			ps.IHavesSent, ps.GraftsSent, ps.PrunesSent)
	}
	if xs, ok := agent.OptimizerStats(); ok {
		s += fmt.Sprintf(" xbot[attempts=%d swaps=%d]", xs.Attempts, xs.SwapsCompleted)
		if cost, ok := agent.MeanLinkCost(); ok {
			s += fmt.Sprintf(" rtt=%.0fµs", cost)
		}
	}
	if ps, ok := agent.PubSubStats(); ok {
		s += fmt.Sprintf(" pubsub[pub=%d frames=%d dlv=%d nosub=%d]",
			ps.Published, ps.Frames, ps.Delivered, ps.NoSubscriber)
	}
	ts := agent.TransportStats()
	s += fmt.Sprintf(" tx[frames=%d writes=%d fpw=%.1f reads=%d ovf=%d susp=%d drain=%d races=%d]",
		ts.FramesSent, ts.WriteCalls, ts.FramesPerWrite(), ts.ReadSyscalls, ts.Overflowed,
		ts.Suspected, ts.Drained, ts.DialRacesLost)
	return s
}

// parseTopics splits a comma-separated topic list ("1,2,7") into topic IDs.
func parseTopics(arg string) ([]uint32, error) {
	if arg == "" {
		return nil, nil
	}
	var out []uint32
	for _, f := range strings.Split(arg, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 32)
		if err != nil || v == 0 || v > uint64(pubsub.MaxTopic) {
			return nil, fmt.Errorf("bad topic %q (want 1..%d)", f, pubsub.MaxTopic)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}
