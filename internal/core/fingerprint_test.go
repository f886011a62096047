package core

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// zeroParamsDigest pins the rendering itself: snapshots on disk and
// testdata/golden_snapshot_v1.json carry digests in this format, so any edit
// to paramsDigest that moves it orphans them.
const zeroParamsDigest = "la=0 gamma=0 nodisc=false gh=0 elig=0 model={NumTrees:0 SampleFraction:0 Tree:{MaxDepth:0 MinLeafSize:0 MinSamplesSplit:0 FeatureFraction:0} MinStdDevFraction:0 Incremental:false} factory=bagging search=auto prune=true batch=true refit=0"

// resultInvisibleParams are the Params fields paramsDigest deliberately
// omits because they cannot change a trial sequence.
var resultInvisibleParams = map[string]bool{"Workers": true}

// paramsSamples supplies a non-default value for the fields a perturbation
// by kind cannot reach.
var paramsSamples = map[string]any{
	"ModelFactory": model.NewGPFactory(),
	"Search":       Sampled{Size: 3},
}

// TestParamsDigestCoversEveryField is the fingerprint guard: every leaf field
// of Params must either move paramsDigest when it alone changes, or be listed
// as result-invisible. A field added without being classified fails here
// instead of letting snapshots resume, and share keys match, across
// configurations that plan differently.
func TestParamsDigestCoversEveryField(t *testing.T) {
	if got := paramsDigest(Params{}); got != zeroParamsDigest {
		t.Fatalf("zero Params digest moved:\n got %q\nwant %q", got, zeroParamsDigest)
	}
	var p Params
	perturbLeaves(t, reflect.ValueOf(&p).Elem(), "", func(path string) {
		moved := paramsDigest(p) != zeroParamsDigest
		switch {
		case resultInvisibleParams[path] && moved:
			t.Errorf("Params.%s is listed result-invisible but moves paramsDigest", path)
		case !resultInvisibleParams[path] && !moved:
			t.Errorf("Params.%s is neither rendered by paramsDigest nor listed result-invisible", path)
		}
	})
}

// perturbLeaves calls visit once per leaf field below v, with that leaf alone
// set to a non-zero value.
func perturbLeaves(t *testing.T, v reflect.Value, prefix string, visit func(path string)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, path := v.Field(i), prefix+v.Type().Field(i).Name
		sample, sampled := paramsSamples[path]
		switch {
		case sampled:
			f.Set(reflect.ValueOf(sample))
		case f.Kind() == reflect.Struct:
			perturbLeaves(t, f, path+".", visit)
			continue
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(3)
		case f.CanFloat():
			f.SetFloat(0.5)
		default:
			t.Errorf("Params.%s: no sample value for a %s field; add one to paramsSamples", path, f.Kind())
			continue
		}
		visit(path)
		f.Set(reflect.Zero(f.Type()))
	}
}
