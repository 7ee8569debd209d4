package cluster

import "strings"

// PolicyDef describes one named policy of an enumeration: the value
// itself plus the one-line usage text command-line tools print.
type PolicyDef[P ~string] struct {
	Policy P
	Usage  string
}

// PolicyRegistry is the single source of truth for a policy enumeration.
// The serving dispatch policies and the router policies are each
// declared as one registry value, and every consumer — ServePolicies /
// RouterPolicies, the Validate methods, CLI usage strings, the
// experiments sweeps — enumerates from it, so the lists cannot drift
// apart. Adding a policy means adding one row.
type PolicyRegistry[P ~string] []PolicyDef[P]

// Policies returns the registered policy values in declaration order.
func (r PolicyRegistry[P]) Policies() []P {
	out := make([]P, len(r))
	for i, d := range r {
		out[i] = d.Policy
	}
	return out
}

// Valid reports whether p is a registered policy value. The empty
// string is not valid here; callers that document a default map "" to
// it before or instead of calling Valid.
func (r PolicyRegistry[P]) Valid(p P) bool {
	for _, d := range r {
		if d.Policy == p {
			return true
		}
	}
	return false
}

// Usage renders the registry as a one-line flag usage string:
// "fifo (strict arrival order), edf (...), ...".
func (r PolicyRegistry[P]) Usage() string {
	var b strings.Builder
	for i, d := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(d.Policy))
		b.WriteString(" (")
		b.WriteString(d.Usage)
		b.WriteString(")")
	}
	return b.String()
}
