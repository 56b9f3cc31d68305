package opt

import (
	"fmt"
	"math"
	"sort"

	"anywheredb/internal/exec"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// EnumResult is the outcome of join enumeration.
type EnumResult struct {
	Order []Step
	Cost  float64
	// Search statistics for the E6/E8 experiments.
	Visits          int
	Pruned          int
	Improvements    int
	Redistributions int
	QuotaExhausted  bool
	// BytesApprox is a rough upper bound on the enumerator's working
	// memory: the depth-first search keeps only the current path and the
	// best plan (§4.1: state lives on the processor stack).
	BytesApprox int
}

// Enumerate runs the branch-and-bound, depth-first, left-deep join
// enumeration of §4.1 under the optimizer governor of Young-Lai's patent:
// a quota of node visits is distributed unevenly across ranked siblings
// (half to the first child, half of the remainder to the next, and so on);
// pruned subtrees return their unused quota; and when a new optimal plan
// improves the best cost by at least 20%, remaining quota is redistributed
// to concentrate effort where a good plan was found.
func Enumerate(q *Query, env *Env) (*EnumResult, error) {
	env.fill()
	n := len(q.Quants)
	if n == 0 {
		return &EnumResult{}, nil
	}

	e := &enumerator{q: q, env: env, best: math.Inf(1)}
	// Heuristic ranking of quantifiers (ascending filtered cardinality);
	// considering tables in rank order defers Cartesian products
	// automatically because connected candidates are preferred at each
	// level.
	e.rank = make([]int, n)
	for i := range e.rank {
		e.rank[i] = i
	}
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = q.LocalCardinality(i)
	}
	sort.SliceStable(e.rank, func(a, b int) bool { return cards[e.rank[a]] < cards[e.rank[b]] })

	quota := env.Quota
	if env.DisableGovernor {
		quota = math.MaxInt64 / 4
	}
	e.globalQuota = quota
	placed := map[int]bool{}
	e.dfs(placed, nil, 0, 1, &quota)
	if e.bestOrder == nil {
		return nil, fmt.Errorf("opt: no plan found for %d quantifiers", n)
	}
	return &EnumResult{
		Order:           e.bestOrder,
		Cost:            e.best,
		Visits:          e.visits,
		Pruned:          e.pruned,
		Improvements:    e.improvements,
		Redistributions: e.redistributions,
		QuotaExhausted:  e.quotaExhausted,
		BytesApprox:     n*64 + len(e.bestOrder)*32,
	}, nil
}

type enumerator struct {
	q    *Query
	env  *Env
	rank []int

	best      float64
	bestOrder []Step

	visits          int
	pruned          int
	improvements    int
	redistributions int
	quotaExhausted  bool
	epoch           int
	globalQuota     int
}

// candidate is one (quantifier, index, method) 3-tuple with its priced
// extension.
type candidate struct {
	step Step
	cost float64
	card float64
	conn bool // connected to the placed prefix
}

// dfs explores extensions of the current prefix. quota is the visit budget
// shared along this path; the root starts with the configured quota.
func (e *enumerator) dfs(placed map[int]bool, prefix []Step, cost, card float64, quota *int) {
	if len(prefix) == len(e.q.Quants) {
		if cost < e.best {
			improved := e.best < math.Inf(1) && cost <= 0.8*e.best
			e.best = cost
			e.bestOrder = append([]Step(nil), prefix...)
			e.improvements++
			if improved && !e.env.NoRedistribution {
				// ≥20% improvement: remaining quota is redistributed from
				// the root so this region of the space gets more effort.
				// Redistribution moves quota between nodes; the global
				// visit budget is unchanged.
				e.epoch++
				e.redistributions++
			}
		}
		return
	}

	cands := e.candidates(placed, prefix, cost, card)
	myEpoch := e.epoch
	remaining := *quota
	for i, c := range cands {
		// The global quota is a hard bound on search effort once a
		// complete plan exists; the per-node remaining shapes where that
		// effort goes.
		if e.bestOrder != nil && (e.visits >= e.globalQuota || remaining <= 0) {
			e.quotaExhausted = true
			return
		}
		e.visits++
		remaining--
		// Branch-and-bound pruning: the prefix cost can only grow.
		if !e.env.DisablePruning && c.cost >= e.best {
			e.pruned++
			continue // unused child quota stays in `remaining` (returned up)
		}
		// Governor: half of the remaining quota goes to this child.
		childQuota := remaining / 2
		if i == len(cands)-1 {
			childQuota = remaining // last child takes everything left
		}
		spentBefore := childQuota
		placed[c.step.Quant] = true
		e.dfs(placed, append(prefix, c.step), c.cost, c.card, &childQuota)
		delete(placed, c.step.Quant)
		remaining -= spentBefore - childQuota
		if e.epoch != myEpoch && !e.env.NoRedistribution {
			// A descendant found a much better plan: refresh this node's
			// remaining allocation so the promising region is explored
			// further (the global cap still bounds total effort).
			myEpoch = e.epoch
			if cap := e.globalQuota - e.visits; remaining < cap/2 {
				remaining = cap / 2
			}
		}
	}
	*quota = remaining
}

// candidates produces the priced, heuristically ordered 3-tuples for the
// next position.
func (e *enumerator) candidates(placed map[int]bool, prefix []Step, cost, card float64) []candidate {
	var out []candidate
	first := len(prefix) == 0
	for _, qi := range e.rank {
		if placed[qi] {
			continue
		}
		qt := e.q.Quants[qi]
		// Outer-join constraint: the preserved side precedes the
		// null-supplied side.
		ok := true
		for _, dep := range qt.OuterDeps {
			if !placed[dep] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		conn := first || e.connected(placed, qi)
		if first {
			// Access paths: sequential scan, plus an index scan if a local
			// sargable predicate matches an index prefix.
			st := Step{Quant: qi, Method: MethodScan}
			c, oc := e.env.stepCost(e.q, placed, card, st)
			out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: true})
			if qt.Table != nil {
				if ix := e.sargableIndex(qi); ix != nil {
					st := Step{Quant: qi, Method: MethodScan, Index: ix}
					c, oc := e.env.stepCost(e.q, placed, card, st)
					out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: true})
				}
			}
			continue
		}
		// Join methods. A null-supplied quantifier with a complex (non-
		// equijoin) ON predicate can only be joined by nested loops, which
		// evaluates the full ON condition before null padding.
		if conn && !qt.NullSuppliedBlocked(placed) && !e.hasComplexOn(qi) {
			st := Step{Quant: qi, Method: MethodHash}
			c, oc := e.env.stepCost(e.q, placed, card, st)
			out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: conn})
			if ix := e.joinIndex(placed, qi); ix != nil {
				st := Step{Quant: qi, Method: MethodINL, Index: ix}
				c, oc := e.env.stepCost(e.q, placed, card, st)
				out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: conn})
			}
		}
		// Nested loops always applies (covers Cartesian products and
		// complex predicates).
		st := Step{Quant: qi, Method: MethodNLJ}
		c, oc := e.env.stepCost(e.q, placed, card, st)
		out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: conn})
	}
	// Heuristic ordering: connected (non-Cartesian) candidates first, then
	// by priced cost — the most promising 3-tuples are enumerated first.
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].conn != out[b].conn {
			return out[a].conn
		}
		return out[a].cost < out[b].cost
	})
	return out
}

// NullSuppliedBlocked reports whether a hash/INL join cannot yet place this
// quantifier (an outer-join dependent not fully placed is filtered in
// candidates; this hook exists for residual ON predicates needing NLJ).
func (q *Quant) NullSuppliedBlocked(placed map[int]bool) bool {
	if !q.NullSupplied {
		return false
	}
	for _, dep := range q.OuterDeps {
		if !placed[dep] {
			return true
		}
	}
	return false
}

// hasComplexOn reports whether a null-supplied quantifier carries a
// multi-quantifier non-equijoin ON conjunct.
func (e *enumerator) hasComplexOn(qi int) bool {
	if !e.q.Quants[qi].NullSupplied {
		return false
	}
	for _, cj := range e.q.Conj {
		if cj.FromOn && cj.OnRight == qi && cj.Class == ComplexPred {
			return true
		}
	}
	return false
}

func (e *enumerator) connected(placed map[int]bool, qi int) bool {
	for other := range e.q.Net[qi] {
		if placed[other] {
			return true
		}
	}
	return false
}

// sargableIndex picks the index to drive quantifier qi's access path:
// among the indexes whose leading column carries a sargable local
// predicate, the one whose key range selects the fewest rows.
func (e *enumerator) sargableIndex(qi int) *table.Index {
	var best *table.Index
	bestSel := math.Inf(1)
	for _, ix := range e.q.Quants[qi].Table.Indexes {
		if len(ix.Cols) == 0 {
			continue
		}
		kr, ok := e.q.keyRange(qi, ix.Cols[0])
		if !ok {
			continue
		}
		if s := e.q.keyRangeSel(kr); s < bestSel {
			best, bestSel = ix, s
		}
	}
	return best
}

// keyRange is the interval of one column that a quantifier's sargable
// local conjuncts (col = c, col < c, col <= c, col > c, col >= c and
// col BETWEEN c1 AND c2, with each c a literal or a bound parameter) pin
// down together.
type keyRange struct {
	col          colRefID
	lo, hi       *val.Value // nil = unbounded
	loInc, hiInc bool
	// eq is an equality conjunct: the probe answers it, so it is consumed.
	// The range conjuncts stay as exact residual filters.
	eq *Conjunct
	// conjs are the range conjuncts intersected into [lo, hi].
	conjs []*Conjunct
}

// keyRange intersects quantifier qi's sargable conjuncts on column col.
// With an equality the range holds at most its one value, so the probe
// answers the equality exactly.
func (q *Query) keyRange(qi, col int) (keyRange, bool) {
	kr := keyRange{col: colRefID{qi, col}}
	for _, cj := range q.LocalConjunctsOf(qi, true) {
		switch x := cj.Expr.(type) {
		case *sqlparse.BinOp:
			c, v, op, ok := colOpLit(q, x)
			if !ok || c != kr.col {
				continue
			}
			switch op {
			case "=":
				if kr.eq == nil {
					kr.eq = cj
				}
				kr.tightenLo(v, true)
				kr.tightenHi(v, true)
				continue
			case "<", "<=":
				kr.tightenHi(v, op == "<=")
			case ">", ">=":
				kr.tightenLo(v, op == ">=")
			default:
				continue
			}
		case *sqlparse.Between:
			c, ok := singleCol(q, x.E)
			if !ok || c != kr.col || x.Neg {
				continue
			}
			lo, lok := q.constOf(x.Lo)
			hi, hok := q.constOf(x.Hi)
			if !lok || !hok {
				continue
			}
			kr.tightenLo(lo, true)
			kr.tightenHi(hi, true)
		default:
			continue
		}
		kr.conjs = append(kr.conjs, cj)
	}
	return kr, kr.eq != nil || len(kr.conjs) > 0
}

func (kr *keyRange) tightenLo(v val.Value, inc bool) {
	if kr.lo != nil {
		if c := val.Compare(v, *kr.lo); c < 0 || (c == 0 && inc) {
			return
		}
	}
	kr.lo, kr.loInc = &v, inc
}

func (kr *keyRange) tightenHi(v val.Value, inc bool) {
	if kr.hi != nil {
		if c := val.Compare(v, *kr.hi); c > 0 || (c == 0 && inc) {
			return
		}
	}
	kr.hi, kr.hiInc = &v, inc
}

// keyRangeSel estimates the fraction of the quantifier's rows inside kr.
func (q *Query) keyRangeSel(kr keyRange) float64 {
	if kr.eq != nil {
		return q.Selectivity(kr.eq)
	}
	if h := q.histOf(kr.col); h != nil {
		return h.SelRange(kr.lo, kr.hi, kr.loInc, kr.hiInc)
	}
	sel := 1.0
	for _, cj := range kr.conjs {
		sel *= q.Selectivity(cj)
	}
	return sel
}

// indexScan builds the index range scan over kr. The lower bound is always
// inclusive: keys equal to an exclusive bound are left to the residual
// filter, which also covers the longer keys of a multi-column index.
func (kr keyRange) indexScan(t *table.Table, ix *table.Index) *exec.IndexScan {
	s := &exec.IndexScan{Table: t, Index: ix, HiInc: kr.hiInc}
	if kr.lo != nil {
		s.Lo = val.EncodeKey([]val.Value{*kr.lo})
	}
	if kr.hi != nil {
		s.Hi = val.EncodeKey([]val.Value{*kr.hi})
	}
	return s
}

// joinIndex finds an index on qi whose leading columns are covered by
// equijoin predicates against the placed prefix.
func (e *enumerator) joinIndex(placed map[int]bool, qi int) *table.Index {
	qt := e.q.Quants[qi]
	if qt.Table == nil {
		return nil
	}
	joinCols := map[int]bool{}
	for _, cj := range e.q.Conj {
		if cj.Class != EquiJoinPred {
			continue
		}
		if cj.LQ == qi && placed[cj.RQ] {
			joinCols[cj.LC] = true
		}
		if cj.RQ == qi && placed[cj.LQ] {
			joinCols[cj.RC] = true
		}
	}
	if len(joinCols) == 0 {
		return nil
	}
	var best *table.Index
	bestLen := 0
	for _, ix := range qt.Table.Indexes {
		// Count the covered prefix.
		k := 0
		for _, c := range ix.Cols {
			if joinCols[c] {
				k++
			} else {
				break
			}
		}
		if k > bestLen {
			best, bestLen = ix, k
		}
	}
	return best
}

// colOpLitConj matches a conjunct of the form col <op> literal.
func colOpLitConj(q *Query, cj *Conjunct) (colRefID, val.Value, string, bool) {
	b, ok := cj.Expr.(*sqlparse.BinOp)
	if !ok {
		return colRefID{}, val.Null, "", false
	}
	return colOpLit(q, b)
}
