package analysis

// The fact mechanism, mirroring golang.org/x/tools/go/analysis facts
// with the standard library only. A Fact is a typed datum an analyzer
// attaches to a types.Object while analyzing the package that
// declares it, and reads back when analyzing a dependent package — the
// channel through which per-package analysis composes into
// whole-program invariants (eventorder's TimeDerived travels this way
// from a helper package to the engine that pushes its events).
//
// Facts live in a Session. Within one process (pmemlint standalone,
// analysistest) the session spans every unit, units run in dependency
// order, and fact lookup is plain object identity. Across processes
// (go vet's one-package-per-invocation protocol) facts are serialized
// to the unit's .vetx file keyed by a textual object path and decoded
// against the importer's view of the dependency.

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// A Fact is an analyzer-defined datum about an object. The
// concrete type must be a pointer, must be JSON-serializable, and must
// be listed in the producing analyzer's FactTypes.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// A Session carries fact state across the units of one analysis run.
// Units must be presented in dependency order (load.Packages and
// analysistest guarantee this; the go vet driver orders packages
// itself) so that a unit's facts exist before its dependents run.
type Session struct {
	objFacts map[objFactKey]Fact
}

type objFactKey struct {
	analyzer string
	obj      types.Object
	fact     reflect.Type
}

// NewSession returns an empty fact store.
func NewSession() *Session {
	return &Session{objFacts: make(map[objFactKey]Fact)}
}

// ExportObjectFact attaches fact to obj, which must belong to the
// package under analysis. The fact's type must appear in the
// analyzer's FactTypes declaration.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("analysis: %s exported a fact for object %v outside package %s", p.Analyzer.Name, obj, p.Pkg.Path()))
	}
	p.session.objFacts[objFactKey{p.Analyzer.Name, obj, p.factType(fact)}] = fact
}

// ImportObjectFact copies into fact (a pointer) the fact of that type
// previously exported for obj, reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	stored, ok := p.session.objFacts[objFactKey{p.Analyzer.Name, obj, p.factType(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// factType validates that the analyzer declared the fact's type and
// returns it. An undeclared fact type is a programming error in the
// analyzer, caught loudly at the first export/import.
func (p *Pass) factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: %s used fact %T, want a pointer type", p.Analyzer.Name, fact))
	}
	for _, declared := range p.Analyzer.FactTypes {
		if reflect.TypeOf(declared) == t {
			return t
		}
	}
	panic(fmt.Sprintf("analysis: %s used fact type %T without declaring it in FactTypes", p.Analyzer.Name, fact))
}

// serializedFact is the vetx wire form of one fact.
type serializedFact struct {
	Analyzer string          `json:"analyzer"`
	Object   string          `json:"object,omitempty"` // object path
	Type     string          `json:"type"`             // fact type name, e.g. "TimeDerived"
	Data     json.RawMessage `json:"data,omitempty"`
}

// EncodeFacts serializes the session's facts about pkg that downstream
// units can use: object facts on objects reachable by path
// (package-level objects and methods of package-level types).
// Output is sorted so equal analyses produce byte-identical vetx files.
func (s *Session) EncodeFacts(pkg *types.Package, analyzers []*Analyzer) ([]byte, error) {
	var out []serializedFact
	for key, fact := range s.objFacts {
		if key.obj.Pkg() != pkg {
			continue
		}
		path, ok := objectPath(key.obj)
		if !ok {
			continue // not expressible; the fact stays process-local
		}
		data, err := json.Marshal(fact)
		if err != nil {
			return nil, fmt.Errorf("analysis: encoding %s fact %T for %s: %w", key.analyzer, fact, path, err)
		}
		out = append(out, serializedFact{Analyzer: key.analyzer, Object: path, Type: key.fact.Elem().Name(), Data: data})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Type < out[j].Type
	})
	return json.Marshal(out)
}

// DecodeFacts installs facts previously encoded for pkg, resolving
// object paths against pkg's scope. Facts whose analyzer, fact type or
// object no longer resolve are skipped: a stale vetx file degrades
// detection, never correctness.
func (s *Session) DecodeFacts(pkg *types.Package, analyzers []*Analyzer, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var in []serializedFact
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("analysis: decoding facts for %s: %w", pkg.Path(), err)
	}
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	for _, sf := range in {
		a := byName[sf.Analyzer]
		if a == nil {
			continue
		}
		var factType reflect.Type
		for _, declared := range a.FactTypes {
			if t := reflect.TypeOf(declared); t.Elem().Name() == sf.Type {
				factType = t
				break
			}
		}
		if factType == nil {
			continue
		}
		fact := reflect.New(factType.Elem()).Interface().(Fact)
		if len(sf.Data) > 0 {
			if err := json.Unmarshal(sf.Data, fact); err != nil {
				return fmt.Errorf("analysis: decoding %s fact %s: %w", sf.Analyzer, sf.Type, err)
			}
		}
		obj := lookupObjectPath(pkg, sf.Object)
		if obj == nil {
			continue
		}
		s.objFacts[objFactKey{sf.Analyzer, obj, factType}] = fact
	}
	return nil
}

// objectPath renders an object as a path resolvable from its package's
// export data: "Name" for a package-level object, "Type.Method" for a
// method of a package-level named type. Unexported and function-local
// objects are not expressible — their facts cannot be observed from
// another package anyway.
func objectPath(obj types.Object) (string, bool) {
	if !obj.Exported() {
		return "", false
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Exported() {
				return named.Obj().Name() + "." + fn.Name(), true
			}
		}
	}
	return "", false
}

// lookupObjectPath resolves a path produced by objectPath.
func lookupObjectPath(pkg *types.Package, path string) types.Object {
	name, method, isMethod := strings.Cut(path, ".")
	obj := pkg.Scope().Lookup(name)
	if obj == nil || !isMethod {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	found, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, method)
	return found
}
