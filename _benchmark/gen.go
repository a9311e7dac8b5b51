package main

import (
	"fmt"
	"math/bits"
)

// spec fixes one workload. Everything a run does follows from a spec and a
// seed; the program under test sees only the generated texts and events.
type spec struct {
	name      string
	why       string
	federated bool // 3-node netoverlay line instead of one TCP broker
	selective bool // non-canonical bucket filters instead of grp equality
	churn     bool // the subscriber connection churns during both timed phases
	subs      int
	groups    int // distinct keys; subs/groups subscriptions can match an event
	window    int // closed loop: oracle-expected deliveries kept outstanding
	pacedRate int // open loop: events per second
}

var specs = []spec{
	{
		name: "fanout", subs: 2048, groups: 32, window: 4096, pacedRate: 1000,
		why: "64 identical filters per event: the delivery plane does the work, matching almost none",
	},
	{
		name: "selective", selective: true, subs: 20000, groups: 2500, window: 320, pacedRate: 250,
		why: "20000 non-canonical filters, ~all trees candidates, ~5 match: the paper's two-phase engine does the work",
	},
	{
		name: "churn", selective: true, churn: true, subs: 20000, groups: 2500, window: 320, pacedRate: 250,
		why: "selective's store while the subscriber connection subscribes and unsubscribes: writes beside reads",
	},
	{
		name: "federated", federated: true, subs: 512, groups: 512, window: 256, pacedRate: 10000,
		why: "3-node netoverlay line, fan-out 1: two hops of encode, flow queue, socket, decode, route",
	},
}

// Value domains of the selective filters. A price band of width priceBand is
// the only place the first clause is false; vol thresholds sit in the upper
// two thirds of the vol domain; four regions. Together ≈0.625 of a bucket's
// eight filters match an event.
const (
	priceDomain = 200000
	priceBand   = 50000
	volDomain   = 30000
	volFloor    = 10000
	regions     = 4
)

// splitmix64 is the benchmark's only source of randomness: a pure function of
// its argument, so event(seq) does not depend on what was generated before.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// permutation returns a seeded permutation of 0..n-1.
func permutation(seed uint64, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(splitmix64(seed+uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// population is one workload's generated input: the subscription texts in
// subscribe order, their parsed form for the oracle, and the grouping that
// says which subscriptions can match an event by construction.
type population struct {
	spec  *spec
	seed  uint64
	texts []string
	exprs []Expr
	key   []int32   // per subscription: its group (grp label index or bucket)
	bit   []uint8   // per subscription: its position among its group's members
	group [][]int32 // per key: member subscriptions, at most 64
	label []int64   // per key: the grp or bucket value events and filters carry
	// per-subscription thresholds of the selective filters
	priceA, volV []int64
	region       []int8
}

func generate(sp *spec, seed uint64) (*population, error) {
	p := &population{spec: sp, seed: seed}
	n, g := sp.subs, sp.groups
	per := n / g
	if per*g != n || per > 64 {
		return nil, fmt.Errorf("spec %s: %d subscriptions do not split into %d groups of at most 64", sp.name, n, g)
	}
	// Labels are a seeded permutation, so texts differ from seed to seed
	// while every seed has the same number of distinct values.
	lab := permutation(seed^0x11, g)
	p.label = make([]int64, g)
	for k := range p.label {
		p.label[k] = 1000 + int64(lab[k])
	}
	// Subscribe order is shuffled: members of a group are not neighbours in
	// the engine's tables.
	order := permutation(seed^0x22, n)
	p.key = make([]int32, n)
	p.bit = make([]uint8, n)
	p.group = make([][]int32, g)
	for i, o := range order {
		k := o / int32(per)
		p.key[i] = k
		p.bit[i] = uint8(len(p.group[k]))
		p.group[k] = append(p.group[k], int32(i))
	}
	if sp.selective {
		pa, pv := permutation(seed^0x33, n), permutation(seed^0x44, n)
		p.priceA, p.volV, p.region = make([]int64, n), make([]int64, n), make([]int8, n)
		for i := 0; i < n; i++ {
			// 2000 distinct price and 2000 distinct vol thresholds, each
			// shared by ten filters: an event fulfils some two thousand
			// predicates and nearly every tree is a candidate.
			p.priceA[i] = priceBand + int64(pa[i]%2000)*70
			p.volV[i] = volFloor + int64(pv[i]%2000)*10
			p.region[i] = int8(splitmix64(seed^0x55+uint64(i)) % regions)
		}
	}
	p.texts = make([]string, n)
	p.exprs = make([]Expr, n)
	for i := range p.texts {
		if sp.selective {
			p.texts[i] = selectiveText(p.label[p.key[i]], p.priceA[i], p.volV[i], int(p.region[i]))
		} else {
			p.texts[i] = fmt.Sprintf("grp = %d", p.label[p.key[i]])
		}
		x, err := parseSub(p.texts[i])
		if err != nil {
			return nil, fmt.Errorf("generated subscription %q: %w", p.texts[i], err)
		}
		p.exprs[i] = x
	}
	return p, nil
}

func selectiveText(bucket, a, v int64, region int) string {
	return fmt.Sprintf(`(bucket = %d and (price > %d or price <= %d)) and (vol >= %d or not region = "r%d")`,
		bucket, a, a-priceBand, v, region)
}

// churnText is the k-th fresh filter of the churn loop: selective's shape,
// thresholds no stored filter uses (so its predicates enter and leave the
// index), and a bucket no event carries, so it is a candidate on every event
// and matches none.
func (p *population) churnText(k int) string {
	h := splitmix64(p.seed ^ 0x66 + uint64(k))
	a := priceBand + int64(h%20000)*7 + 3
	v := volFloor + int64((h>>20)%10000)*2 + 1
	return selectiveText(int64(5000+k%1000), a, v, int((h>>40)%regions))
}

var regionNames = [regions]string{"r0", "r1", "r2", "r3"}
var symNames = [16]string{"S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "S11", "S12", "S13", "S14", "S15"}

// event builds event seq with the given due time; seq -1-k is the k-th
// sentinel a set-up publishes until its last subscription is live. The key
// is the group whose members are the only subscriptions that can match.
func (p *population) event(seq, ts int64) (Event, int32) {
	h := splitmix64(p.seed ^ 0x77 + uint64(seq)*0x9e3779b97f4a7c15)
	k := int32(h % uint64(p.spec.groups))
	if seq < 0 {
		k = p.key[len(p.key)-1]
	}
	h2 := splitmix64(h)
	if p.spec.selective {
		return newEvent([]Attr{
			intAttr("bucket", p.label[k]),
			intAttr("price", int64(h2%priceDomain)),
			strAttr("region", regionNames[(h2>>32)%regions]),
			intAttr("seq", seq),
			intAttr("ts", ts),
			intAttr("vol", int64((h2>>40)%volDomain)),
		}), k
	}
	return newEvent([]Attr{
		intAttr("grp", p.label[k]),
		intAttr("price", int64(h2%priceDomain)),
		intAttr("seq", seq),
		strAttr("sym", symNames[(h2>>32)%16]),
		intAttr("ts", ts),
	}), k
}

// sentinel returns an event (seq < 0) that matches the last subscription, and
// how many subscriptions it matches: once it has arrived that often, every
// subscription made before it is live.
func (p *population) sentinel() (Event, int) {
	last := len(p.key) - 1
	for k := int64(1); ; k++ {
		ev, key := p.event(-k, 0)
		if mask := p.expected(ev, key); mask&(1<<p.bit[last]) != 0 {
			return ev, popcount(mask)
		}
	}
}

// expected is the oracle: the naive evaluator over the subscriptions of the
// event's group, as a bit mask over the group's members.
func (p *population) expected(ev Event, key int32) uint64 {
	var mask uint64
	for j, i := range p.group[key] {
		if evalNaive(p.exprs[i], ev) {
			mask |= 1 << uint(j)
		}
	}
	return mask
}

// crossCheck evaluates the first n events against every stored subscription
// and fails if any subscription outside an event's group matches, or the
// group mask disagrees: the by-construction shortcut of expected must equal
// full-store naive evaluation.
func (p *population) crossCheck(n int) error {
	for seq := int64(0); seq < int64(n); seq++ {
		ev, key := p.event(seq, 0)
		want := p.expected(ev, key)
		var got uint64
		for i, x := range p.exprs {
			if !evalNaive(x, ev) {
				continue
			}
			if p.key[i] != key {
				return fmt.Errorf("oracle: event %d (group %d) matches subscription %d of group %d", seq, key, i, p.key[i])
			}
			got |= 1 << p.bit[i]
		}
		if got != want {
			return fmt.Errorf("oracle: event %d: full-store mask %x, group mask %x", seq, got, want)
		}
	}
	return nil
}

func popcount(m uint64) int { return bits.OnesCount64(m) }
