package dataplane_test

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/dataplane"
	"tango/internal/packet"
	"tango/internal/simnet"
	"tango/internal/transport"
)

// tap is a simnet node that keeps the handler the switch installed, so a
// test can hand it frames no route would deliver, and copies what the
// switch emits.
type tap struct {
	*simnet.Node
	handle transport.Handler
	sent   [][]byte
}

func (n *tap) SetHandler(h transport.Handler) {
	n.handle = h
	n.Node.SetHandler(h)
}

func (n *tap) InjectBuf(pb *packet.Buf) {
	n.sent = append(n.sent, append([]byte(nil), pb.Bytes()...))
	n.Node.InjectBuf(pb)
}

var (
	fuzzKey    = []byte("tango-pair-shared-key-0123456789")
	fuzzLocal  = netip.MustParseAddr("2001:db8:a1::1")
	fuzzRemote = netip.MustParseAddr("2001:db8:b1::1")
)

// fuzzEdge builds one started edge (core.Edge, the stack every deployment
// runs) at local on its own network: two tunnels toward remote,
// controller, reporter and prober all ticking, so the fuzzed receiver
// shares its pool with live senders.
func fuzzEdge(key []byte, local, remote netip.Addr) (*simnet.Network, *tap, *core.Edge) {
	w := simnet.New(7)
	n := &tap{Node: w.AddNode("edge", 0)}
	e := core.NewEdge(n, n.Eng())
	e.Start(core.EdgeConfig{
		Local: local,
		Paths: []core.EdgePath{
			{Name: "fast", Remote: remote},
			{Name: "slow", Remote: remote.Next()},
		},
		PeerPaths:    []string{"fast", "slow"},
		Policy:       &control.MinOWD{HysteresisMs: 0.5},
		DecideEvery:  10 * time.Millisecond,
		ReportEvery:  5 * time.Millisecond,
		ReportMaxAge: time.Second,
		AuthKey:      key,
	})
	e.Probe(local, remote, 5*time.Millisecond)
	return w, n, e
}

// validEncap returns a frame exactly as the peer edge with the given key
// emits it toward fuzzLocal: its first probe on path 1.
func validEncap(key []byte) []byte {
	w, n, _ := fuzzEdge(key, fuzzRemote, fuzzLocal)
	w.Run(5 * time.Millisecond)
	return n.sent[0]
}

// receiverCorpus is FuzzReceiverProgram's seed corpus: per key, a valid
// frame, the frame truncated at every header boundary — end of IPv6, end
// of UDP, then each word of the Tango header and its extensions — and
// the frame with its outer UDP checksum flipped; then the empty frame.
func receiverCorpus() [][]byte {
	var corpus [][]byte
	for _, key := range [][]byte{nil, fuzzKey} {
		frame := validEncap(key)
		corpus = append(corpus, frame, frame[:40])
		for cut := 48; cut < len(frame); cut += 4 {
			corpus = append(corpus, frame[:cut])
		}
		flipped := append([]byte(nil), frame...)
		flipped[46] ^= 0xff
		corpus = append(corpus, flipped)
	}
	return append(corpus, nil)
}

// FuzzReceiverProgram feeds arbitrary frames to the receiver program of a
// started edge, with and without an auth key. Every frame must be
// accounted for by exactly one of Decapped, BadPacket, AuthFail and not
// being Tango at all; a frame that fails parsing or verification must
// never reach OnMeasure; and once the engine has run the stack's own
// tickers, every pooled buffer leased must have been released.
func FuzzReceiverProgram(f *testing.F) {
	for _, frame := range receiverCorpus() {
		f.Add(frame)
	}

	type rx struct {
		w        *simnet.Network
		n        *tap
		e        *core.Edge
		measured int
	}
	var rxs []*rx
	for _, key := range [][]byte{nil, fuzzKey} {
		r := &rx{}
		r.w, r.n, r.e = fuzzEdge(key, fuzzLocal, fuzzRemote)
		ingest := r.e.Switch.OnMeasure
		r.e.Switch.OnMeasure = func(m dataplane.Measurement) {
			r.measured++
			ingest(m)
		}
		// The seeds must stay valid: each receiver accepts its own peer's
		// frame.
		r.n.handle(validEncap(key))
		if r.measured != 1 || r.e.Switch.Stats.Decapped != 1 {
			f.Fatalf("valid encap not accepted: %+v", r.e.Switch.Stats)
		}
		rxs = append(rxs, r)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, r := range rxs {
			before, measured := r.e.Switch.Stats, r.measured
			r.n.handle(frame)
			st := r.e.Switch.Stats
			rejected := st.BadPacket + st.AuthFail - (before.BadPacket + before.AuthFail)
			if !packet.IsTango(frame) {
				rejected++
			}
			if fed := st.Decapped - before.Decapped + rejected; fed != 1 {
				t.Fatalf("one frame fed, %d accounted for (before %+v, after %+v)", fed, before, st)
			}
			if rejected == 1 && r.measured != measured {
				t.Fatal("a rejected frame reached OnMeasure")
			}
			r.w.Run(r.w.Now() + 20*time.Millisecond)
			if ps := r.n.Pool().Stats; ps.Gets != ps.Puts {
				t.Fatalf("pool leases unbalanced: %d gets, %d puts", ps.Gets, ps.Puts)
			}
		}
	})
}
