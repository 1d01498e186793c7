package expr

import (
	"repro/internal/storage"
	"repro/internal/types"
)

// PruneCheck is a compiled page-level can-match check: given a page's
// per-column zone maps it reports whether any row of the page could satisfy
// the predicate. False means the page is provably irrelevant and may be
// skipped without fetching or decoding it.
type PruneCheck = func(zones []storage.ZoneMap) bool

// CompilePrune compiles a pushed-down predicate into a PruneCheck over the
// shapes zone maps can decide: Cmp(col, const), Between(col, const, const)
// and In(col, literals) against int-class (int/date/bool) and string
// bounds, composed through And/Or. Everything else — arithmetic, Not,
// non-literal operands, floats — is conservative: it can never rule a page
// out, and CompilePrune returns nil when the whole predicate is such (a nil
// check means "scan every page", exactly the pre-zone-map behaviour).
//
// Soundness mirrors the engine's NULL→false row semantics: zone bounds span
// only non-NULL rows, NULL rows can never satisfy a predicate, and columns
// whose zone map is unknown (mixed value classes, floats) or null-only
// never prune. A compiled check performs no allocation:
// it is consulted once per page per query on the scan hot path.
func CompilePrune(e Expr) PruneCheck {
	switch x := e.(type) {
	case Cmp:
		if col, ok := x.L.(Col); ok {
			if k, ok := x.R.(Const); ok {
				return pruneCmpColConst(x.Op, col.Idx, k.D)
			}
		}
		if k, ok := x.L.(Const); ok {
			if col, ok := x.R.(Col); ok {
				return pruneCmpColConst(mirror(x.Op), col.Idx, k.D)
			}
		}
		return nil
	case Between:
		col, okE := x.E.(Col)
		lo, okLo := x.Lo.(Const)
		hi, okHi := x.Hi.(Const)
		if !okE || !okLo || !okHi {
			return nil
		}
		return pruneBetween(col.Idx, lo.D, hi.D)
	case In:
		col, ok := x.E.(Col)
		if !ok {
			return nil
		}
		return pruneIn(col.Idx, x.Set)
	case And:
		l, r := CompilePrune(x.L), CompilePrune(x.R)
		switch {
		case l == nil:
			return r
		case r == nil:
			return l
		default:
			return func(z []storage.ZoneMap) bool { return l(z) && r(z) }
		}
	case Or:
		l, r := CompilePrune(x.L), CompilePrune(x.R)
		if l == nil || r == nil {
			// One branch can never be ruled out, so neither can the OR.
			return nil
		}
		return func(z []storage.ZoneMap) bool { return l(z) || r(z) }
	default:
		return nil
	}
}

// pruneNever matches no page: the predicate is false for every row (e.g. a
// NULL literal operand), so every page may be skipped. Pages without zone
// maps are still scanned — the scan layers only consult the check when
// zones are known — and their rows evaluate to false identically.
func pruneNever(z []storage.ZoneMap) bool { return false }

// zoneAt returns the column's zone map, or an unknown (never-prune) zone
// when the predicate references a column the page does not carry.
func zoneAt(z []storage.ZoneMap, idx int) storage.ZoneMap {
	if idx < 0 || idx >= len(z) {
		return storage.ZoneMap{}
	}
	return z[idx]
}

func pruneCmpColConst(op CmpOp, idx int, k types.Datum) PruneCheck {
	if k.IsNull() {
		return pruneNever
	}
	if intClass(k.K) {
		ki := k.I
		return func(z []storage.ZoneMap) bool {
			zm := zoneAt(z, idx)
			if zm.Flags&storage.ZoneInt == 0 {
				return true
			}
			switch op {
			case EQ:
				return ki >= zm.MinI && ki <= zm.MaxI
			case NE:
				return zm.MinI != zm.MaxI || zm.MinI != ki
			case LT:
				return zm.MinI < ki
			case LE:
				return zm.MinI <= ki
			case GT:
				return zm.MaxI > ki
			default: // GE
				return zm.MaxI >= ki
			}
		}
	}
	if k.K == types.KindString {
		ks := k.S
		return func(z []storage.ZoneMap) bool {
			zm := zoneAt(z, idx)
			if zm.Flags&storage.ZoneStr == 0 {
				return true
			}
			switch op {
			case EQ:
				return ks >= zm.MinS && ks <= zm.MaxS
			case NE:
				return zm.MinS != zm.MaxS || zm.MinS != ks
			case LT:
				return zm.MinS < ks
			case LE:
				return zm.MinS <= ks
			case GT:
				return zm.MaxS > ks
			default: // GE
				return zm.MaxS >= ks
			}
		}
	}
	// Float and other literal classes: no zone bounds, never prune.
	return nil
}

func pruneBetween(idx int, lo, hi types.Datum) PruneCheck {
	if lo.IsNull() || hi.IsNull() {
		return pruneNever
	}
	if intClass(lo.K) && intClass(hi.K) {
		loI, hiI := lo.I, hi.I
		return func(z []storage.ZoneMap) bool {
			zm := zoneAt(z, idx)
			if zm.Flags&storage.ZoneInt == 0 {
				return true
			}
			return hiI >= zm.MinI && loI <= zm.MaxI
		}
	}
	if lo.K == types.KindString && hi.K == types.KindString {
		loS, hiS := lo.S, hi.S
		return func(z []storage.ZoneMap) bool {
			zm := zoneAt(z, idx)
			if zm.Flags&storage.ZoneStr == 0 {
				return true
			}
			return hiS >= zm.MinS && loS <= zm.MaxS
		}
	}
	return nil
}

func pruneIn(idx int, set []types.Datum) PruneCheck {
	if len(set) == 0 {
		return pruneNever
	}
	allInt, allStr := true, true
	for _, d := range set {
		if !intClass(d.K) {
			allInt = false
		}
		if d.K != types.KindString {
			allStr = false
		}
	}
	switch {
	case allInt:
		ints := make([]int64, len(set))
		for i, d := range set {
			ints[i] = d.I
		}
		return func(z []storage.ZoneMap) bool {
			zm := zoneAt(z, idx)
			if zm.Flags&storage.ZoneInt == 0 {
				return true
			}
			for _, v := range ints {
				if v >= zm.MinI && v <= zm.MaxI {
					return true
				}
			}
			return false
		}
	case allStr:
		strs := make([]string, len(set))
		for i, d := range set {
			strs[i] = d.S
		}
		return func(z []storage.ZoneMap) bool {
			zm := zoneAt(z, idx)
			if zm.Flags&storage.ZoneStr == 0 {
				return true
			}
			for _, s := range strs {
				if s >= zm.MinS && s <= zm.MaxS {
					return true
				}
			}
			return false
		}
	default:
		// A mixed-kind membership set may include NULLs (which match
		// nothing) alongside literals of several classes; stay conservative.
		return nil
	}
}
