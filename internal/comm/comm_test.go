package comm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// runAll runs fn concurrently on every endpoint and waits for completion.
func runAll[E Endpoint](t *testing.T, eps []E, fn func(ep Endpoint)) {
	t.Helper()
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			fn(ep)
		}(ep)
	}
	wg.Wait()
}

func newClusters(t *testing.T, n int) map[string][]Endpoint {
	t.Helper()
	out := map[string][]Endpoint{}
	local := NewLocalCluster(n)
	eps := make([]Endpoint, n)
	for i, e := range local {
		eps[i] = e
	}
	out["local"] = eps
	tcp, err := NewTCPCluster(n)
	if err != nil {
		t.Fatalf("tcp cluster: %v", err)
	}
	teps := make([]Endpoint, n)
	for i, e := range tcp {
		teps[i] = e
	}
	out["tcp"] = teps
	return out
}

func TestExchangeAllTransports(t *testing.T) {
	const n = 4
	for name, eps := range newClusters(t, n) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			var mu sync.Mutex
			got := map[string]string{}
			runAll(t, eps, func(ep Endpoint) {
				out := make([][]byte, n)
				for to := range out {
					out[to] = []byte(fmt.Sprintf("%d->%d", ep.Rank(), to))
				}
				in := Exchange(ep, TagApp, out)
				for from, payload := range in {
					mu.Lock()
					got[fmt.Sprintf("%d@%d", from, ep.Rank())] = string(payload)
					mu.Unlock()
				}
			})
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					want := fmt.Sprintf("%d->%d", from, to)
					if got[fmt.Sprintf("%d@%d", from, to)] != want {
						t.Errorf("host %d got %q from %d, want %q",
							to, got[fmt.Sprintf("%d@%d", from, to)], from, want)
					}
				}
			}
		})
	}
}

func closeAll(eps []Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

func TestConsecutiveExchangesStaySeparate(t *testing.T) {
	// Two back-to-back exchanges with the same tag must not interleave:
	// per-sender FIFO guarantees round 1 payloads precede round 2.
	const n, rounds = 3, 20
	for name, eps := range newClusters(t, n) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			errs := make(chan error, n*rounds)
			runAll(t, eps, func(ep Endpoint) {
				for r := 0; r < rounds; r++ {
					out := make([][]byte, n)
					for to := range out {
						out[to] = []byte{byte(r)}
					}
					in := Exchange(ep, TagReduce, out)
					for from, p := range in {
						if from != ep.Rank() && p[0] != byte(r) {
							errs <- fmt.Errorf("host %d round %d got round %d from %d",
								ep.Rank(), r, p[0], from)
						}
					}
				}
			})
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func TestDifferentTagsDoNotInterfere(t *testing.T) {
	eps := NewLocalCluster(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		eps[0].Send(1, TagReduce, []byte("reduce"))
		eps[0].Send(1, TagRequest, []byte("request"))
	}()
	var gotReq, gotRed []byte
	go func() {
		defer wg.Done()
		gotReq = eps[1].Recv(0, TagRequest) // receive in opposite order
		gotRed = eps[1].Recv(0, TagReduce)
	}()
	wg.Wait()
	if string(gotReq) != "request" || string(gotRed) != "reduce" {
		t.Fatalf("tag demux broken: %q %q", gotReq, gotRed)
	}
}

func TestBarrier(t *testing.T) {
	const n = 5
	eps := NewLocalCluster(n)
	var phase [n]int
	var mu sync.Mutex
	epsI := make([]Endpoint, n)
	for i, e := range eps {
		epsI[i] = e
	}
	runAll(t, epsI, func(ep Endpoint) {
		mu.Lock()
		phase[ep.Rank()] = 1
		mu.Unlock()
		Barrier(ep)
		mu.Lock()
		for i, p := range phase {
			if p == 0 {
				t.Errorf("after barrier, host %d had not entered", i)
			}
		}
		mu.Unlock()
	})
}

func TestAllReduce(t *testing.T) {
	const n = 4
	eps := NewLocalCluster(n)
	epsI := make([]Endpoint, n)
	for i, e := range eps {
		epsI[i] = e
	}
	var mu sync.Mutex
	var boolRes []bool
	var sumRes []int64
	var minRes []float64
	var fsumRes []float64
	runAll(t, epsI, func(ep Endpoint) {
		b := AllReduceBool(ep, ep.Rank() == 2)
		s := AllReduceInt64(ep, int64(ep.Rank()+1))
		m := AllReduceMinFloat64(ep, float64(ep.Rank())+0.5)
		f := AllReduceFloat64(ep, float64(ep.Rank()))
		mu.Lock()
		boolRes = append(boolRes, b)
		sumRes = append(sumRes, s)
		minRes = append(minRes, m)
		fsumRes = append(fsumRes, f)
		mu.Unlock()
	})
	for i := range boolRes {
		if !boolRes[i] {
			t.Error("OR reduce lost the true")
		}
		if sumRes[i] != 10 {
			t.Errorf("sum reduce = %d, want 10", sumRes[i])
		}
		if minRes[i] != 0.5 {
			t.Errorf("min reduce = %v, want 0.5", minRes[i])
		}
		if fsumRes[i] != 6 {
			t.Errorf("float sum = %v, want 6", fsumRes[i])
		}
	}
}

func TestAllReduceBoolFalse(t *testing.T) {
	eps := NewLocalCluster(2)
	epsI := []Endpoint{eps[0], eps[1]}
	runAll(t, epsI, func(ep Endpoint) {
		if AllReduceBool(ep, false) {
			t.Error("all-false OR returned true")
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	eps := NewLocalCluster(2)
	eps[0].Send(1, TagApp, []byte("12345"))
	eps[1].Recv(0, TagApp)
	msgs, bytes := eps[0].Stats()
	if msgs != 1 || bytes != 5 {
		t.Fatalf("stats = %d msgs %d bytes, want 1/5", msgs, bytes)
	}
	msgs, _ = eps[1].Stats()
	if msgs != 0 {
		t.Fatalf("receiver accounted %d sends", msgs)
	}
}

// Every tag has its own name: a tag that loses its String arm falls back
// to "tag%d" and would print that way in StatsByTag tables.
func TestTagStringsNamed(t *testing.T) {
	seen := map[string]Tag{}
	for i := 0; i < NumTags; i++ {
		tag := Tag(i)
		s := tag.String()
		if s == fmt.Sprintf("tag%d", i) {
			t.Errorf("Tag(%d) has no String arm", i)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("Tag(%d) and Tag(%d) share the name %q", prev, i, s)
		}
		seen[s] = tag
	}
}

func TestSelfSendPanics(t *testing.T) {
	eps := NewLocalCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	eps[0].Send(0, TagApp, nil)
}

func TestSingleHostClusterTrivial(t *testing.T) {
	eps := NewLocalCluster(1)
	Barrier(eps[0]) // must not block
	if v := AllReduceInt64(eps[0], 7); v != 7 {
		t.Fatalf("1-host sum = %d", v)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(a uint32, b uint64, c float64) bool {
		buf := AppendUint32(nil, a)
		buf = AppendUint64(buf, b)
		buf = AppendFloat64(buf, c)
		ga, rest := ReadUint32(buf)
		gb, rest := ReadUint64(rest)
		gc, rest := ReadFloat64(rest)
		return ga == a && gb == b && (gc == c || (c != c && gc != gc)) && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	eps, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()
	payload := make([]byte, 1<<20)
	r := rand.New(rand.NewSource(1))
	r.Read(payload)
	done := make(chan []byte)
	go func() { done <- eps[1].Recv(0, TagApp) }()
	eps[0].Send(1, TagApp, payload)
	got := <-done
	if len(got) != len(payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestNewLocalClusterPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLocalCluster(0)
}

func TestNewTCPClusterRejectsZero(t *testing.T) {
	if _, err := NewTCPCluster(0); err == nil {
		t.Fatal("expected error")
	}
}

func TestTCPSendAfterCloseFailsLoudly(t *testing.T) {
	eps, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	eps[0].Close()
	eps[1].Close()
	defer func() {
		if recover() == nil {
			t.Fatal("send on closed endpoint did not panic")
		}
	}()
	eps[0].Send(1, TagApp, []byte("x"))
}

func TestLocalEndpointCloseIdempotent(t *testing.T) {
	eps := NewLocalCluster(2)
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	eps, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyPayloadExchange(t *testing.T) {
	eps := NewLocalCluster(3)
	epsI := make([]Endpoint, 3)
	for i, e := range eps {
		epsI[i] = e
	}
	runAll(t, epsI, func(ep Endpoint) {
		out := make([][]byte, 3) // all nil payloads
		in := Exchange(ep, TagApp, out)
		for from, p := range in {
			if from != ep.Rank() && len(p) != 0 {
				t.Errorf("expected empty payload, got %d bytes", len(p))
			}
		}
	})
}

func TestExchangeWrongSizePanics(t *testing.T) {
	eps := NewLocalCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("mis-sized Exchange did not panic")
		}
	}()
	Exchange(eps[0], TagApp, make([][]byte, 5))
}
