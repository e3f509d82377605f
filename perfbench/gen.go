package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"ageguard/internal/cells"
	"ageguard/pkg/ageguard/api"
)

// Request kinds, named as the daemon names its endpoints; the per-kind
// per-layer metrics carry these as suffixes.
const (
	kindGuardband  = "guardband"
	kindCellTiming = "celltiming"
	kindPaths      = "paths"
	kindBatch      = "batch"
	kindMC         = "mc"
)

var allKinds = []string{kindGuardband, kindCellTiming, kindPaths, kindBatch, kindMC}

// circuits are the benchmark circuits the workloads query.
var circuits = []string{"RISC-5P", "RISC-6P", "VLIW"}

// The aging scenarios the workloads query, spelled as on the wire. Aged
// scenarios name their lifetime explicitly; the daemon's default is the
// same 10 years.
var (
	scFresh   = api.Scenario{Kind: "fresh"}
	scWorst   = api.Scenario{Kind: "worst", Years: 10}
	scBalance = api.Scenario{Kind: "balance", Years: 10}
	scDuty    = api.Scenario{Kind: "duty", Years: 10, LambdaP: 0.25, LambdaN: 0.75}
)

// request is one generated query. class groups the requests whose
// latencies are reported together; a workload may split one kind into
// several classes (a cold first query and its warm repeat are both
// guardband queries).
type request struct {
	kind  string
	class string
	gb    *api.GuardbandRequest
	ct    *api.CellTimingRequest
	pa    *api.PathsRequest
	mc    *api.MCGuardbandRequest
	batch []api.BatchItem
	// novel marks a batch whose bytes the daemon has not seen before: it
	// plans it instead of replaying a stored whole reply.
	novel bool
}

func guardbandReq(class, circuit string, sc api.Scenario) request {
	return request{kind: kindGuardband, class: class,
		gb: &api.GuardbandRequest{Version: api.APIVersion, Circuit: circuit, Scenario: sc}}
}

func pathsReq(circuit string, sc api.Scenario, k int) request {
	return request{kind: kindPaths, class: kindPaths,
		pa: &api.PathsRequest{Version: api.APIVersion, Circuit: circuit, Scenario: sc, K: k}}
}

// newRand returns the generator of one stream of a workload seed. Streams
// of one seed are independent, so each caller draws its own.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// coldIteration is one round of cold-guardband on a fresh daemon: the
// fully cold RISC-5P worst-case query, its repeat (which must come back
// byte-identical), then the other two circuits, whose libraries are warm
// by then and which therefore cost synthesis and STA only. The seed
// orders the two new circuits.
func coldIteration(rng *rand.Rand) []request {
	first, second := "RISC-6P", "VLIW"
	if rng.IntN(2) == 1 {
		first, second = second, first
	}
	return []request{
		guardbandReq("cold", "RISC-5P", scWorst),
		guardbandReq("repeat", "RISC-5P", scWorst),
		guardbandReq("new-circuit", first, scWorst),
		guardbandReq("new-circuit", second, scWorst),
	}
}

// warmBlock is the kind mix of warm-mix: every block of 20 requests holds
// exactly these counts in a seeded order, so every seed and every long
// enough prefix of a stream has the same mix.
var warmBlock = []string{
	kindGuardband, kindGuardband, kindGuardband, kindGuardband, kindGuardband,
	kindGuardband, kindGuardband, kindGuardband, kindGuardband,
	kindCellTiming, kindCellTiming, kindCellTiming, kindCellTiming, kindCellTiming,
	kindCellTiming, kindCellTiming, kindCellTiming, kindCellTiming,
	kindPaths, kindBatch,
}

// warmStream generates one warm-mix caller's requests. Every request
// addresses RISC-5P under the four scenarios the prepared disk cache
// holds, so the daemon answers all of them from its LRU.
type warmStream struct {
	rng   *rand.Rand
	cells []string
	base  []api.BatchItem
	block []string
}

func newWarmStream(seed uint64, caller int) *warmStream {
	return &warmStream{rng: newRand(seed, uint64(caller)+1), cells: cellNames(), base: pr9Batch()}
}

func (w *warmStream) next() request {
	if len(w.block) == 0 {
		w.block = append(w.block[:0], warmBlock...)
		w.rng.Shuffle(len(w.block), func(i, j int) { w.block[i], w.block[j] = w.block[j], w.block[i] })
	}
	kind := w.block[0]
	w.block = w.block[1:]
	aged := []api.Scenario{scWorst, scBalance, scDuty}
	all := []api.Scenario{scFresh, scWorst, scBalance, scDuty}
	switch kind {
	case kindGuardband:
		return guardbandReq(kindGuardband, "RISC-5P", aged[w.rng.IntN(len(aged))])
	case kindCellTiming:
		return request{kind: kindCellTiming, class: kindCellTiming, ct: &api.CellTimingRequest{
			Version:  api.APIVersion,
			Cell:     w.cells[w.rng.IntN(len(w.cells))],
			Scenario: all[w.rng.IntN(len(all))],
			InSlewS:  logUniform(w.rng, 5e-12, 947e-12),
			LoadF:    logUniform(w.rng, 0.5e-15, 20e-15),
		}}
	case kindPaths:
		return pathsReq("RISC-5P", all[w.rng.IntN(len(all))], 5)
	default:
		// Half the batches repeat the base batch verbatim, which the
		// daemon replays from its whole-reply memo. The rest send its
		// items in a fresh seeded order, whose bytes do not recur, so the
		// daemon plans every one of them and answers each item from its
		// item-fragment memo.
		r := request{kind: kindBatch, class: kindBatch, batch: w.base}
		if w.rng.IntN(2) == 1 {
			r.batch, r.novel = append([]api.BatchItem(nil), w.base...), true
			w.rng.Shuffle(len(r.batch), func(i, j int) { r.batch[i], r.batch[j] = r.batch[j], r.batch[i] })
		}
		return r
	}
}

// logUniform draws from [lo, hi] uniformly on a log scale, the spacing
// of the characterization grid's axes.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

// cellNames lists the standard-cell catalog, sorted.
func cellNames() []string {
	var out []string
	for _, c := range cells.All() {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}

// pr9Batch is the 32-item batch of BENCH_PR9.json: guardband and
// celltiming items interleaved over three aged scenarios and two cells.
func pr9Batch() []api.BatchItem {
	scens := []api.Scenario{scWorst, scBalance, scDuty}
	cellsUsed := []string{"INV_X1", "NAND2_X1"}
	items := make([]api.BatchItem, 0, 32)
	for i := 0; len(items) < 32; i++ {
		sc := scens[(i/2)%len(scens)]
		if i%2 == 0 {
			items = append(items, api.GuardbandItem(api.GuardbandRequest{
				Version: api.APIVersion, Circuit: "RISC-5P", Scenario: sc}))
		} else {
			items = append(items, api.CellTimingItem(api.CellTimingRequest{
				Version: api.APIVersion, Cell: cellsUsed[(i/2)%len(cellsUsed)], Scenario: sc,
				InSlewS: 20e-12, LoadF: 2e-15}))
		}
	}
	return items
}

// missStream generates miss-sweep: rounds of one Monte Carlo query with
// a seed no earlier query of the run used, followed by pathsPerRound
// paths queries walking a seeded order of every (circuit, scenario, k)
// key. There are 180 keys, more than the daemon's 128-entry LRU holds,
// and the walk revisits a key only after all others, so every query
// misses the reply memo while its library and netlist stay warm.
type missStream struct {
	rng    *rand.Rand
	keys   []request
	cursor int
	round  int
	seeds  map[uint64]bool
}

// mcRefSeed is the sample-stream seed of the Monte Carlo query whose
// quantiles reference.json records; every miss-sweep run issues it first.
const mcRefSeed = 1

// mcSamples is the sample count of every miss-sweep Monte Carlo query.
const mcSamples = 32

// pathsPerRound is the number of paths queries after each MC query.
const pathsPerRound = 36

func newMissStream(seed uint64) *missStream {
	m := &missStream{rng: newRand(seed, 0), seeds: map[uint64]bool{mcRefSeed: true}}
	for _, c := range circuits {
		for _, sc := range []api.Scenario{scFresh, scWorst, scBalance} {
			for k := 1; k <= 20; k++ {
				m.keys = append(m.keys, pathsReq(c, sc, k))
			}
		}
	}
	m.rng.Shuffle(len(m.keys), func(i, j int) { m.keys[i], m.keys[j] = m.keys[j], m.keys[i] })
	return m
}

// nextRound returns the next round's requests.
func (m *missStream) nextRound() []request {
	seed := uint64(mcRefSeed)
	if m.round > 0 {
		for seed = m.rng.Uint64(); m.seeds[seed]; seed = m.rng.Uint64() {
		}
		m.seeds[seed] = true
	}
	m.round++
	out := []request{{kind: kindMC, class: kindMC, mc: &api.MCGuardbandRequest{
		Version: api.APIVersion, Circuit: "RISC-5P", Scenario: scWorst,
		Samples: mcSamples, Seed: seed,
	}}}
	for i := 0; i < pathsPerRound; i++ {
		out = append(out, m.keys[m.cursor])
		m.cursor = (m.cursor + 1) % len(m.keys)
	}
	return out
}

// scenarioKey names a wire scenario in the checker's tables.
func scenarioKey(sc api.Scenario) string {
	return fmt.Sprintf("%s/%g/%g/%g", sc.Kind, sc.Years, sc.LambdaP, sc.LambdaN)
}
