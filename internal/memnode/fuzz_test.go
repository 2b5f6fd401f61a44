package memnode

import (
	"testing"
)

// refModel is the naive reference the fuzzer diffs the node against: plain
// maps of owner holdings, with the merge-domain rules restated independently.
// It runs with unbounded capacity (the node under test keeps its default
// 16 GiB DRAM and unbounded spill, so nothing is ever rejected, compressed,
// or spilled) — every structural identity is exact.
type refModel struct {
	scope  MergeScope
	opt    map[string]bool
	shared map[refKey]map[string]int // merge domain → owner → pages
	priv   map[string]map[Class]int  // owner → class → pages
}

type refKey struct {
	dom   string
	class Class
}

func newRefModel(scope MergeScope, optIn []string) *refModel {
	m := &refModel{
		scope:  scope,
		opt:    make(map[string]bool),
		shared: make(map[refKey]map[string]int),
		priv:   make(map[string]map[Class]int),
	}
	for _, t := range optIn {
		m.opt[t] = true
	}
	return m
}

func (m *refModel) domain(fn string, class Class) string {
	if class != ClassRuntime || m.scope == MergeFunction {
		return fn
	}
	t := firstLetterTenant(fn)
	if m.scope == MergeCrossTenant && m.opt[t] {
		return "*"
	}
	return "tenant:" + t
}

func (m *refModel) sharedRefs(fn string, class Class) map[string]int {
	k := refKey{dom: m.domain(fn, class), class: class}
	refs := m.shared[k]
	if refs == nil {
		refs = make(map[string]int)
		m.shared[k] = refs
	}
	return refs
}

func (m *refModel) offload(owner, fn string, class Class, pages int) int {
	if class.Shared() {
		m.sharedRefs(fn, class)[owner] += pages
	} else {
		if m.priv[owner] == nil {
			m.priv[owner] = make(map[Class]int)
		}
		m.priv[owner][class] += pages
	}
	return pages
}

func (m *refModel) recall(owner, fn string, class Class, pages int) int {
	if class.Shared() {
		refs := m.sharedRefs(fn, class)
		if pages > refs[owner] {
			pages = refs[owner]
		}
		refs[owner] -= pages
		return pages
	}
	held := m.priv[owner][class]
	if pages > held {
		pages = held
	}
	if pages > 0 {
		m.priv[owner][class] -= pages
	}
	return pages
}

// writeBreak moves pages from the owner's shared holding to its private copy.
// With unbounded capacity nothing is ever recalled.
func (m *refModel) writeBreak(owner, fn string, class Class, pages int) int {
	if !class.Shared() {
		return 0
	}
	refs := m.sharedRefs(fn, class)
	if pages > refs[owner] {
		pages = refs[owner]
	}
	if pages == 0 {
		return 0
	}
	refs[owner] -= pages
	if m.priv[owner] == nil {
		m.priv[owner] = make(map[Class]int)
	}
	m.priv[owner][class] += pages
	return pages
}

func (m *refModel) discard(owner string) int {
	var freed int
	for _, refs := range m.shared {
		freed += refs[owner]
		delete(refs, owner)
	}
	for _, p := range m.priv[owner] {
		freed += p
	}
	delete(m.priv, owner)
	return freed
}

func (m *refModel) ownerPages(owner string) int {
	var total int
	for _, refs := range m.shared {
		total += refs[owner]
	}
	for _, p := range m.priv[owner] {
		total += p
	}
	return total
}

func (m *refModel) logicalPages() int {
	var total int
	for _, refs := range m.shared {
		for _, p := range refs {
			total += p
		}
	}
	for _, pm := range m.priv {
		for _, p := range pm {
			total += p
		}
	}
	return total
}

// residentPages: each shared domain keeps one master sized by its longest
// holder; private holdings are stored verbatim.
func (m *refModel) residentPages() int {
	var total int
	for _, refs := range m.shared {
		maxP := 0
		for _, p := range refs {
			if p > maxP {
				maxP = p
			}
		}
		total += maxP
	}
	for _, pm := range m.priv {
		for _, p := range pm {
			total += p
		}
	}
	return total
}

// FuzzMergeDomains differentially fuzzes the merge-domain page store against
// the map-based reference model: random interleavings of offload / recall /
// CoW break / discard / read across three tenants and every merge scope must
// keep per-owner holdings, the node ledger, and the resident (refcounted
// master) footprint byte-equal to the model, with CheckInvariants — including
// the isolation and cache fairness properties — green after every op.
//
// Input layout: byte 0 picks the scope, byte 1 is the tenant opt-in mask
// (bit 7 additionally enables the shared cache tier); each following 4-byte
// group is one op: (opcode, owner, class, pages).
func FuzzMergeDomains(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x10\x00\x01\x00\x20"))
	f.Add([]byte("\x01\x83\x00\x00\x00\x10\x00\x04\x00\x10\x02\x00\x00\x08\x01\x04\x00\x10"))
	f.Add([]byte("\x02\x83\x00\x00\x00\x20\x00\x02\x00\x20\x00\x06\x00\x20\x02\x02\x00\x10\x03\x02\x00\x00"))
	f.Add([]byte("\x02\x07\x00\x01\x00\x3f\x00\x03\x00\x3f\x04\x03\x00\x10\x01\x01\x00\x30\x03\x01\x00\x00"))
	f.Add([]byte("\x02\x81\x00\x00\x01\x30\x00\x02\x01\x30\x04\x00\x01\x10\x02\x00\x01\x20\x00\x04\x02\x18\x01\x04\x02\x08"))

	tenants := []string{"a", "b", "c"}
	fns := []string{"a1", "a2", "b1", "c1"}
	var owners []string
	ownerFn := map[string]string{}
	for _, fn := range fns {
		for _, c := range []string{"#1", "#2"} {
			owners = append(owners, fn+c)
			ownerFn[fn+c] = fn
		}
	}
	classes := []Class{ClassRuntime, ClassInit, ClassExec}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			MergeScope: MergeScopes()[int(data[0])%3],
			TenantOf:   firstLetterTenant,
		}
		for i, tn := range tenants {
			if data[1]&(1<<i) != 0 {
				cfg.MergeOptIn = append(cfg.MergeOptIn, tn)
			}
		}
		if data[1]&(1<<7) != 0 {
			cfg.CacheBytes = 64 * ps
		}
		n := New(cfg)
		ref := newRefModel(cfg.MergeScope, cfg.MergeOptIn)

		for ops := data[2:]; len(ops) >= 4; ops = ops[4:] {
			owner := owners[int(ops[1])%len(owners)]
			fn := ownerFn[owner]
			class := classes[int(ops[2])%len(classes)]
			pages := 1 + int(ops[3])%64
			switch int(ops[0]) % 5 {
			case 0:
				got := n.Offload(owner, fn, class, pages)
				if want := ref.offload(owner, fn, class, pages); got != want {
					t.Fatalf("offload(%s,%s,%v,%d) = %d, want %d", owner, fn, class, pages, got, want)
				}
			case 1:
				got := n.Recall(owner, fn, class, pages)
				if want := ref.recall(owner, fn, class, pages); got.Pages != want {
					t.Fatalf("recall(%s,%s,%v,%d) = %d, want %d", owner, fn, class, pages, got.Pages, want)
				}
			case 2:
				got := n.WriteBreak(owner, fn, class, pages)
				if want := ref.writeBreak(owner, fn, class, pages); got.Pages != want || got.Recalled != 0 {
					t.Fatalf("writeBreak(%s,%s,%v,%d) = %+v, want %d privatized, 0 recalled",
						owner, fn, class, pages, got, want)
				}
			case 3:
				got := n.DiscardOwner(owner)
				if want := int64(ref.discard(owner)) * ps; got != want {
					t.Fatalf("discard(%s) freed %d, want %d", owner, got, want)
				}
			case 4:
				// ReadCost must clamp like a recall but change nothing.
				got := n.ReadCost(owner, fn, class, pages)
				want := ref.ownerClassClamp(owner, fn, class, pages)
				if got.Pages != want {
					t.Fatalf("readCost(%s,%s,%v,%d) = %d, want %d", owner, fn, class, pages, got.Pages, want)
				}
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, o := range owners {
				if got, want := n.OwnerLogicalBytes(o), int64(ref.ownerPages(o))*ps; got != want {
					t.Fatalf("owner %s logical = %d, model says %d", o, got, want)
				}
			}
			if got, want := n.LogicalBytes(), int64(ref.logicalPages())*ps; got != want {
				t.Fatalf("node logical = %d, model says %d", got, want)
			}
			if got, want := n.ResidentBytes(), int64(ref.residentPages())*ps; got != want {
				t.Fatalf("node resident = %d, model says %d", got, want)
			}
		}
	})
}

// ownerClassClamp is the model's answer to ReadCost: the owner's holding of
// one class, clamped.
func (m *refModel) ownerClassClamp(owner, fn string, class Class, pages int) int {
	held := 0
	if class.Shared() {
		held = m.sharedRefs(fn, class)[owner]
	} else {
		held = m.priv[owner][class]
	}
	if pages > held {
		pages = held
	}
	return pages
}
