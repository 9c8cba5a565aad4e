package cluster

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
)

// TestClusterWorkerOracleOnlyForInformedAttacks pins which workers pay for
// the honest-peer oracle: only a Byzantine worker running an informed
// attack replicates its honest peers. A blind attack (reversed) forges from
// its own gradient, so it holds no oracle; honest workers never do.
func TestClusterWorkerOracleOnlyForInformedAttacks(t *testing.T) {
	train := data.SyntheticFeatures(60, 4, 2, 3)
	spec := workerSpec{
		ModelFactory: func() *nn.Network {
			return nn.NewMLP(4, []int{5}, 2, rand.New(rand.NewSource(4)))
		},
		Train:        train,
		Batch:        8,
		Workers:      6,
		Byzantine:    map[int]string{4: "reversed", 5: "omniscient"},
		Unresponsive: map[int]bool{3: true},
		Seed:         9,
	}
	for id, wantPeers := range map[int][]int{0: nil, 4: nil, 5: {0, 1, 2}} {
		w, err := newClusterWorker(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(w.peers, wantPeers) {
			t.Fatalf("worker %d oracle peers %v, want %v", id, w.peers, wantPeers)
		}
		hasOracle := w.peerReplica != nil || w.peerSamplers != nil
		if want := wantPeers != nil; hasOracle != want {
			t.Fatalf("worker %d holds an oracle replica: %v, want %v", id, hasOracle, want)
		}
	}
}

// TestUDPBroadcastErrorNamesLowestWorker checks the concurrent model
// broadcast reports failures deterministically: with the model senders of
// workers 3 and 7 closed, every Step fails naming worker 3, whichever
// goroutine's write failed first.
func TestUDPBroadcastErrorNamesLowestWorker(t *testing.T) {
	ds := data.SyntheticFeatures(200, 6, 3, 21)
	ds.MinMaxScale()
	cl, err := NewUDPCluster(UDPClusterConfig{
		Addr: "127.0.0.1:0",
		ModelFactory: func() *nn.Network {
			return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(22)))
		},
		Workers:   9,
		GAR:       gar.NewMultiKrum(1),
		Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:     16,
		Train:     ds,
		MTU:       256,
		Seed:      23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.modelSenders[7].Close()
	cl.modelSenders[3].Close()
	for run := 0; run < 20; run++ {
		_, err := cl.Step()
		if err == nil {
			t.Fatalf("run %d: Step succeeded with two closed model senders", run)
		}
		if msg := err.Error(); !strings.Contains(msg, "worker 3 ") || strings.Contains(msg, "worker 7") {
			t.Fatalf("run %d: error %q, want it to name worker 3 only", run, msg)
		}
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("run %d: error %q does not wrap net.ErrClosed", run, err)
		}
	}
}
