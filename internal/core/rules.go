package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// ScoredRule is one mva-type association rule read off an association
// table, with its quality measures.
type ScoredRule struct {
	Rule       Rule
	Support    float64 // Supp(X), the rule row's tail support
	Confidence float64 // Conf(X ==mva==> Y)
	// Lift compares the rule's confidence against the consequent
	// value's base rate; > 1 means the antecedent is informative.
	Lift float64
}

// MineOptions filters mined rules.
type MineOptions struct {
	// MinSupport and MinConfidence are the classical thresholds
	// (§1.1); zero values accept everything.
	MinSupport    float64
	MinConfidence float64
	// MaxRules caps the result (0 = unlimited). Rules are ranked by
	// Support*Confidence, the same quantity ACV sums.
	MaxRules int

	// Run carries the runtime-only hooks of MineRulesContext: a
	// PhaseRules progress callback (one unit per hyperedge into the
	// head) and the context-poll stride in edges (0 = every edge, the
	// natural unit since each rebuilds one association table). Held by
	// pointer so MineOptions stays comparable; never persisted.
	Run *runopt.Hooks `json:"-"`
}

// MineRules extracts the mva-type rules behind every hyperedge of the
// model pointing at the head attribute: one rule per nonempty
// association-table row, with the row's most frequent head value as
// the consequent. Rules are returned ranked by Support*Confidence.
//
// MineRules is the v1 form of MineRulesContext with a background
// context; the two are bit-identical when never canceled.
func MineRules(m *Model, head int, opt MineOptions) ([]ScoredRule, error) {
	return MineRulesContext(context.Background(), m, head, opt)
}

// MineRulesContext is MineRules under a context: cancellation is
// polled per hyperedge (each rebuilds one association table from the
// training rows), and ctx.Err() is returned promptly, discarding
// partial results.
func MineRulesContext(ctx context.Context, m *Model, head int, opt MineOptions) ([]ScoredRule, error) {
	if head < 0 || head >= m.Table.NumAttrs() {
		return nil, fmt.Errorf("core: head attribute %d out of range", head)
	}
	if err := m.RequireRows(); err != nil {
		return nil, err
	}
	chk := runopt.NewChecker(ctx, opt.Run.Stride(), 1)
	prog := runopt.NewMeter(runopt.PhaseRules, len(m.H.In(head)), opt.Run.Func())
	var cands []ruleCandidate
	for i, ei := range m.H.In(head) {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		at, err := BuildAssociationTable(m.Table, m.H.Edge(int(ei)).Tail, head)
		if err != nil {
			return nil, err
		}
		cands = appendCandidates(cands, at, int32(i), opt)
		prog.Tick(1)
	}
	// Candidates were appended in (in, row) order, so breaking ties on
	// it makes the order total and the same as a stable sort's.
	slices.SortFunc(cands, func(a, b ruleCandidate) int {
		if sa, sb := a.supp*a.conf, b.supp*b.conf; sa != sb {
			return cmp.Compare(sb, sa)
		}
		if a.conf != b.conf {
			return cmp.Compare(b.conf, a.conf)
		}
		return cmp.Or(cmp.Compare(a.in, b.in), cmp.Compare(a.row, b.row))
	})
	if opt.MaxRules > 0 && len(cands) > opt.MaxRules {
		cands = cands[:opt.MaxRules]
	}
	return buildRules(m, head, cands), nil
}

// ruleCandidate is a rule MineRulesContext ranks before building it. A
// built rule carries two slices: sorting rules moves pointers under
// write barriers, and building every rule only to return MaxRules of
// them allocates thousands per head on the benchmark's k3 model.
type ruleCandidate struct {
	in, row    int32 // position of the edge in m.H.In(head); AT row
	best       table.Value
	supp, conf float64
}

// appendCandidates appends a candidate for each row of at, the AT of
// the edge at position in of its head's in-list, that has support and
// passes opt's thresholds.
func appendCandidates(cands []ruleCandidate, at *AssociationTable, in int32, opt MineOptions) []ruleCandidate {
	for row := range at.Counts {
		supp := at.Support(row)
		if supp == 0 || supp < opt.MinSupport {
			continue
		}
		conf := at.Confidence(row)
		if conf < opt.MinConfidence {
			continue
		}
		best, _ := at.Best(row)
		cands = append(cands, ruleCandidate{in: in, row: int32(row), best: best, supp: supp, conf: conf})
	}
	return cands
}

// buildRules builds the rules of the candidates into head, in order.
func buildRules(m *Model, head int, cands []ruleCandidate) []ScoredRule {
	if len(cands) == 0 {
		return nil
	}
	in := m.H.In(head)
	k, n := m.Table.K(), m.Table.NumRows()
	baseCounts := m.Table.ValueCounts(head)
	out := make([]ScoredRule, len(cands))
	for i, c := range cands {
		tail := m.H.Edge(int(in[c.in])).Tail
		x := make([]Item, len(tail))
		for j, row := len(tail)-1, int(c.row); j >= 0; j-- {
			x[j] = Item{Attr: tail[j], Val: table.Value(row%k + 1)}
			row /= k
		}
		out[i] = ScoredRule{
			Rule:       Rule{X: x, Y: []Item{{Attr: head, Val: c.best}}},
			Support:    c.supp,
			Confidence: c.conf,
		}
		if base := float64(baseCounts[c.best-1]) / float64(n); base > 0 {
			out[i].Lift = c.conf / base
		}
	}
	return out
}

// FormatRule renders a rule with the table's attribute names, e.g.
// "{A=3, C=12} => {B=13}".
func FormatRule(tb *table.Table, r Rule) string {
	side := func(items []Item) string {
		s := "{"
		for i, it := range items {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%s=%d", tb.AttrName(it.Attr), it.Val)
		}
		return s + "}"
	}
	return side(r.X) + " => " + side(r.Y)
}
