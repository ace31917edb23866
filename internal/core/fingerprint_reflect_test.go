package core

import (
	"reflect"
	"testing"

	"pmemsched/internal/workflow"
)

// These tests are the runtime complement of the pmemlint fingerprint
// analyzer: the analyzer proves every exported field is *referenced* by
// the key writers; these prove each field actually *changes* the key.
// Both must fail when a future field is added but not hashed.

// Two distinct environment fingerprints for the key tests.
const envA, envB uint64 = 1, 2

// mutation is one reflect-applied change to a single exported field
// (or slice structure) reachable from a struct type.
type mutation struct {
	name  string
	apply func(v reflect.Value)
}

// fieldMutations enumerates one mutation per exported leaf field of
// struct type t, descending into nested structs and slices of structs.
// Unsupported kinds fail the test so the enumeration can never silently
// skip a future field.
func fieldMutations(t *testing.T, typ reflect.Type, path string) []mutation {
	t.Helper()
	var muts []mutation
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		idx := i
		name := path + f.Name
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			muts = append(muts, mutation{name, func(v reflect.Value) {
				fv := v.Field(idx)
				fv.SetInt(fv.Int() + 1)
			}})
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			muts = append(muts, mutation{name, func(v reflect.Value) {
				fv := v.Field(idx)
				fv.SetUint(fv.Uint() + 1)
			}})
		case reflect.Float32, reflect.Float64:
			muts = append(muts, mutation{name, func(v reflect.Value) {
				fv := v.Field(idx)
				fv.SetFloat(fv.Float() + 1.5)
			}})
		case reflect.String:
			muts = append(muts, mutation{name, func(v reflect.Value) {
				fv := v.Field(idx)
				fv.SetString(fv.String() + "x")
			}})
		case reflect.Bool:
			muts = append(muts, mutation{name, func(v reflect.Value) {
				fv := v.Field(idx)
				fv.SetBool(!fv.Bool())
			}})
		case reflect.Struct:
			for _, m := range fieldMutations(t, f.Type, name+".") {
				inner := m
				muts = append(muts, mutation{inner.name, func(v reflect.Value) {
					inner.apply(v.Field(idx))
				}})
			}
		case reflect.Slice:
			muts = append(muts, mutation{name + "(append)", func(v reflect.Value) {
				fv := v.Field(idx)
				fv.Set(reflect.Append(fv, reflect.Zero(f.Type.Elem())))
			}})
			if f.Type.Elem().Kind() == reflect.Struct {
				for _, m := range fieldMutations(t, f.Type.Elem(), name+"[0].") {
					inner := m
					muts = append(muts, mutation{inner.name, func(v reflect.Value) {
						fv := v.Field(idx)
						if fv.Len() == 0 {
							t.Fatalf("base value has empty slice at %s; give it an element", name)
						}
						inner.apply(fv.Index(0))
					}})
				}
			}
		default:
			t.Fatalf("field %s has kind %s; extend fieldMutations to cover it", name, f.Type.Kind())
		}
	}
	return muts
}

func baseComponent() workflow.ComponentSpec {
	return workflow.ComponentSpec{
		Name:                "comp",
		ComputePerIteration: 0.25,
		ComputePerObject:    0.003,
		ComputeJitter:       0.1,
		Objects:             []workflow.ObjectSpec{{Bytes: 64 << 10, CountPerRank: 3}},
	}
}

func componentKey(c workflow.ComponentSpec) cacheKey {
	w := newKeyWriter(kindRun)
	writeComponentFingerprint(&w, c)
	return w.sum()
}

// TestComponentFingerprintCoversEveryField mutates each exported
// workflow.ComponentSpec field (recursively, including ObjectSpec
// inside Objects) and demands the fingerprint change. A fresh base is
// built per mutation: reflect mutations reach through shared slice
// backing arrays, so reusing one base would corrupt later cases.
func TestComponentFingerprintCoversEveryField(t *testing.T) {
	muts := fieldMutations(t, reflect.TypeOf(workflow.ComponentSpec{}), "ComponentSpec.")
	if len(muts) < 7 {
		t.Fatalf("enumerated only %d mutations; expected at least one per exported field (7 for the current struct)", len(muts))
	}
	baseKey := componentKey(baseComponent())
	for _, m := range muts {
		c := baseComponent()
		m.apply(reflect.ValueOf(&c).Elem())
		if got := componentKey(c); got == baseKey {
			t.Errorf("mutating %s did not change the component fingerprint %v; writeComponentFingerprint must hash it", m.name, got)
		}
	}
}

// TestRunKeyCoversSpecAndDeployment extends the same check to the full
// cache key: every exported field of workflow.Spec (recursing into both
// components) and core.Deployment must perturb runKey.
func TestRunKeyCoversSpecAndDeployment(t *testing.T) {
	baseSpec := func() workflow.Spec {
		return workflow.Spec{
			Name:       "wf",
			Simulation: baseComponent(),
			Analytics:  baseComponent(),
			Ranks:      16,
			Iterations: 10,
		}
	}
	baseDep := func() Deployment {
		return Deployment{Mode: Serial, SimSocket: 0, AnaSocket: 1, DeviceSocket: 1}
	}
	baseKey := runKey(envA, baseSpec(), baseDep())

	for _, m := range fieldMutations(t, reflect.TypeOf(workflow.Spec{}), "Spec.") {
		s := baseSpec()
		m.apply(reflect.ValueOf(&s).Elem())
		if runKey(envA, s, baseDep()) == baseKey {
			t.Errorf("mutating %s did not change runKey", m.name)
		}
	}
	for _, m := range fieldMutations(t, reflect.TypeOf(Deployment{}), "Deployment.") {
		d := baseDep()
		m.apply(reflect.ValueOf(&d).Elem())
		if runKey(envA, baseSpec(), d) == baseKey {
			t.Errorf("mutating %s did not change runKey", m.name)
		}
	}
	if runKey(envA, baseSpec(), baseDep()) != baseKey {
		t.Fatal("runKey is not deterministic for identical inputs")
	}
	if runKey(envB, baseSpec(), baseDep()) == baseKey {
		t.Error("environment key does not perturb runKey")
	}
}

// TestDAGKeyCoversEveryField extends the coverage proof to the DAG
// tuner's memo key: every exported field of workflow.DAGSpec (recursing
// into stages, components, and edges) and of DAGAssignment must perturb
// dagKey.
func TestDAGKeyCoversEveryField(t *testing.T) {
	baseDAG := func() workflow.DAGSpec {
		return workflow.DAGSpec{
			Name:       "d",
			Iterations: 3,
			Stages: []workflow.StageSpec{
				{Name: "a", Component: baseComponent(), Ranks: 8},
				{Name: "b", Component: baseComponent(), Ranks: 4},
			},
			Edges: []workflow.EdgeSpec{{From: "a", To: "b", Type: workflow.EdgeStream}},
		}
	}
	baseAsg := func() DAGAssignment {
		return DAGAssignment{Stages: []StageConfig{
			{Ranks: 8, Mode: Serial, Place: LocW, Stack: "base"},
			{Ranks: 4, Mode: Parallel, Place: LocR, Stack: "nv"},
		}}
	}
	baseKey := dagKey(envA, baseDAG(), baseAsg())

	for _, m := range fieldMutations(t, reflect.TypeOf(workflow.DAGSpec{}), "DAGSpec.") {
		d := baseDAG()
		m.apply(reflect.ValueOf(&d).Elem())
		if dagKey(envA, d, baseAsg()) == baseKey {
			t.Errorf("mutating %s did not change dagKey", m.name)
		}
	}
	for _, m := range fieldMutations(t, reflect.TypeOf(DAGAssignment{}), "DAGAssignment.") {
		a := baseAsg()
		m.apply(reflect.ValueOf(&a).Elem())
		if dagKey(envA, baseDAG(), a) == baseKey {
			t.Errorf("mutating %s did not change dagKey", m.name)
		}
	}
	if dagKey(envA, baseDAG(), baseAsg()) != baseKey {
		t.Fatal("dagKey is not deterministic for identical inputs")
	}
	if dagKey(envB, baseDAG(), baseAsg()) == baseKey {
		t.Error("environment key does not perturb dagKey")
	}
}
