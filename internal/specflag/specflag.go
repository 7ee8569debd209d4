// Package specflag parses the repeatable comma-separated key=value
// command-line specs the serving CLIs take — tenant specs like
// "name=web,deadline=20,rate=300" for hios-serve and hios-cluster, node
// specs like "platform=a40,count=2,replicas=2" for hios-cluster.
//
// A Parser is built once from typed Field accessors and owns the whole
// grammar: parsing, the error vocabulary ("unknown tenant field ..."),
// and the round-trip String rendering, so every CLI that takes a spec
// flag parses — and prints — exactly the same language. Fields left
// unset parse to their zero value, String omits zero-valued fields, and
// the empty spec parses to the zero value, so Parse(String(v)) == v for
// every value Parse returns.
package specflag

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/shus-lab/hios/internal/units"
)

// Field is one key of a spec grammar: its name plus typed set/render
// accessors into the spec struct. Build values with Str, Int, Float and
// Millis.
type Field[T any] struct {
	// Key is the field name on the command line.
	Key string
	set func(*T, string) error
	get func(*T) (string, bool)
}

// Str declares a string field; f returns the address of the field
// inside the spec struct.
func Str[T any](key string, f func(*T) *string) Field[T] {
	return Field[T]{
		Key: key,
		set: func(v *T, s string) error { *f(v) = s; return nil },
		get: func(v *T) (string, bool) { s := *f(v); return s, s != "" },
	}
}

// Int declares an integer field.
func Int[T any](key string, f func(*T) *int) Field[T] {
	return Field[T]{
		Key: key,
		set: func(v *T, s string) error {
			n, err := strconv.Atoi(s)
			*f(v) = n
			return err
		},
		get: func(v *T) (string, bool) { n := *f(v); return strconv.Itoa(n), n != 0 },
	}
}

// Float declares a dimensionless, finite float field.
func Float[T any](key string, f func(*T) *float64) Field[T] {
	return Field[T]{
		Key: key,
		set: func(v *T, s string) error {
			x, err := parseFinite(s)
			*f(v) = x
			return err
		},
		get: func(v *T) (string, bool) {
			x := *f(v)
			return strconv.FormatFloat(x, 'g', -1, 64), x > 0 || x < 0
		},
	}
}

// Millis declares a finite duration field stated in milliseconds.
func Millis[T any](key string, f func(*T) *units.Millis) Field[T] {
	return Field[T]{
		Key: key,
		set: func(v *T, s string) error {
			x, err := parseFinite(s)
			*f(v) = units.Millis(x)
			return err
		},
		get: func(v *T) (string, bool) {
			m := *f(v)
			return strconv.FormatFloat(float64(m), 'g', -1, 64), m > 0 || m < 0
		},
	}
}

// parseFinite parses a float and rejects NaN and ±Inf: no Validate
// accepts them, and String cannot render NaN back (it is neither above
// nor below zero).
func parseFinite(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
		err = fmt.Errorf("%s is not finite", s)
	}
	return x, err
}

// Parser parses and renders one spec grammar.
type Parser[T any] struct {
	kind   string
	fields []Field[T]
}

// New builds a parser for the named spec kind ("tenant", "node") from
// its fields, in the order String renders them.
func New[T any](kind string, fields ...Field[T]) *Parser[T] {
	return &Parser[T]{kind: kind, fields: fields}
}

// Keys returns the grammar's field names in declaration order.
func (p *Parser[T]) Keys() []string {
	out := make([]string, len(p.fields))
	for i, f := range p.fields {
		out[i] = f.Key
	}
	return out
}

// Parse parses a comma-separated key=value spec. Unset fields keep
// their zero value, so the empty spec is the zero value; unknown keys
// and malformed values are errors naming the spec kind and the
// offending part.
func (p *Parser[T]) Parse(s string) (T, error) {
	var v T
	if s == "" {
		return v, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return v, fmt.Errorf("bad %s field %q (want key=value)", p.kind, part)
		}
		fld := p.field(key)
		if fld == nil {
			return v, fmt.Errorf("unknown %s field %q (want %s)", p.kind, key, joinOr(p.Keys()))
		}
		if err := fld.set(&v, val); err != nil {
			return v, fmt.Errorf("bad %s field %q: %v", p.kind, part, err)
		}
	}
	return v, nil
}

// String renders a spec value back into the flag syntax, omitting
// zero-valued fields, in field declaration order. Parse(String(v))
// reproduces v.
func (p *Parser[T]) String(v T) string {
	var b strings.Builder
	for _, f := range p.fields {
		s, ok := f.get(&v)
		if !ok {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(s)
	}
	return b.String()
}

func (p *Parser[T]) field(key string) *Field[T] {
	for i := range p.fields {
		if p.fields[i].Key == key {
			return &p.fields[i]
		}
	}
	return nil
}

// joinOr renders a key list as "a, b or c" for error messages.
func joinOr(keys []string) string {
	switch len(keys) {
	case 0:
		return ""
	case 1:
		return keys[0]
	}
	return strings.Join(keys[:len(keys)-1], ", ") + " or " + keys[len(keys)-1]
}
