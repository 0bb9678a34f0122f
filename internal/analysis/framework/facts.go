package framework

import (
	"go/types"
	"reflect"
)

// Fact is a datum an analyzer attaches to a types.Object while analyzing
// the declaring package, for use when the same analyzer later processes a
// downstream package. It mirrors golang.org/x/tools/go/analysis.Fact, with
// one simplification: kimbapvet analyzes the whole program in one
// process, so facts live in memory for the duration of a checker run and
// are never serialized. Implementations must be pointer types (Import
// copies into the caller's pointee).
type Fact interface{ AFact() }

type objFactKey struct {
	analyzer string
	obj      types.Object
	typ      reflect.Type
}

// FactStore accumulates facts across packages for one checker run. Facts
// are keyed by (analyzer, object, fact type): analyzers see only their own
// facts, and one object may carry several facts of distinct types. The
// checker feeds packages to each analyzer in import order (dependencies
// first), so by the time a package is analyzed, facts about everything it
// imports are present.
type FactStore struct {
	objs map[objFactKey]Fact
}

// NewFactStore returns an empty store for one checker run.
func NewFactStore() *FactStore {
	return &FactStore{objs: map[objFactKey]Fact{}}
}

// ExportObjectFact attaches fact to obj for this analyzer, replacing any
// existing fact of the same type on obj.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || p.store == nil {
		return
	}
	p.store.objs[objFactKey{p.Analyzer.Name, obj, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact of *fact's type attached to obj into
// fact and reports whether one was found. fact must be a pointer to a
// struct implementing Fact.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || p.store == nil {
		return false
	}
	got, ok := p.store.objs[objFactKey{p.Analyzer.Name, obj, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}
