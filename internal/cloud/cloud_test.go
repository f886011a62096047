package cloud

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func validVM() VMType {
	return VMType{Name: "t2.xlarge", Family: "t2", Size: "xlarge", VCPUs: 4, MemoryGB: 16, PricePerHour: 0.1856}
}

func TestVMTypeValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*VMType)
		wantErr bool
	}{
		{name: "valid", mutate: func(*VMType) {}, wantErr: false},
		{name: "empty name", mutate: func(v *VMType) { v.Name = "" }, wantErr: true},
		{name: "zero vcpus", mutate: func(v *VMType) { v.VCPUs = 0 }, wantErr: true},
		{name: "negative memory", mutate: func(v *VMType) { v.MemoryGB = -1 }, wantErr: true},
		{name: "zero price", mutate: func(v *VMType) { v.PricePerHour = 0 }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := validVM()
			tt.mutate(&v)
			err := v.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewCatalogRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewCatalog(nil); err == nil {
		t.Error("empty catalogue should error")
	}
	if _, err := NewCatalog([]VMType{validVM(), validVM()}); err == nil {
		t.Error("duplicate VM types should error")
	}
	if _, err := NewCatalog([]VMType{{Name: "bad"}}); err == nil {
		t.Error("invalid VM type should error")
	}
}

func TestCatalogLookup(t *testing.T) {
	c, err := AWSCatalog()
	if err != nil {
		t.Fatalf("AWSCatalog error: %v", err)
	}
	v, err := c.Lookup("t2.small")
	if err != nil {
		t.Fatalf("Lookup error: %v", err)
	}
	if v.VCPUs != 1 || v.MemoryGB != 2 {
		t.Errorf("t2.small = %+v, want 1 vCPU / 2 GB (Table 2)", v)
	}
	if _, err := c.Lookup("x1e.32xlarge"); !errors.Is(err, ErrUnknownVMType) {
		t.Errorf("Lookup unknown type error = %v, want ErrUnknownVMType", err)
	}
}

func TestAWSCatalogCoversPaperFamilies(t *testing.T) {
	c, err := AWSCatalog()
	if err != nil {
		t.Fatalf("AWSCatalog error: %v", err)
	}
	// Table 2: the four t2 sizes used for the Tensorflow jobs.
	for _, name := range []string{"t2.small", "t2.medium", "t2.xlarge", "t2.2xlarge"} {
		if _, err := c.Lookup(name); err != nil {
			t.Errorf("missing Tensorflow VM type %q: %v", name, err)
		}
	}
	// §5.1.2: Scout uses {c4,r4,m4} × {large,xlarge,2xlarge}; CherryPick uses
	// {c4,m4,r3,i2} × the same sizes.
	for _, family := range []string{"c4", "m4", "r4", "r3", "i2"} {
		for _, size := range []string{"large", "xlarge", "2xlarge"} {
			name := family + "." + size
			if _, err := c.Lookup(name); err != nil {
				t.Errorf("missing VM type %q: %v", name, err)
			}
		}
	}
}

func TestClusterValidate(t *testing.T) {
	valid := Cluster{VM: validVM(), Workers: 8, ExtraVMs: 1}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid cluster rejected: %v", err)
	}
	if err := (Cluster{VM: validVM(), Workers: 0}).Validate(); err == nil {
		t.Error("zero workers should error")
	}
	if err := (Cluster{VM: validVM(), Workers: 2, ExtraVMs: -1}).Validate(); err == nil {
		t.Error("negative extra VMs should error")
	}
	bad := VMType{Name: "bad"}
	if err := (Cluster{VM: validVM(), Workers: 2, ExtraVMs: 1, ExtraVMsType: &bad}).Validate(); err == nil {
		t.Error("invalid extra VM type should error")
	}
}

func TestClusterAggregates(t *testing.T) {
	c := Cluster{VM: validVM(), Workers: 8, ExtraVMs: 1}
	if got := c.TotalVCPUs(); got != 32 {
		t.Errorf("TotalVCPUs = %d, want 32", got)
	}
	if got := c.TotalMemoryGB(); got != 128 {
		t.Errorf("TotalMemoryGB = %v, want 128", got)
	}
	wantHourly := 9 * 0.1856
	if got := c.PricePerHour(); math.Abs(got-wantHourly) > 1e-12 {
		t.Errorf("PricePerHour = %v, want %v", got, wantHourly)
	}
	if got := c.PricePerSecond(); math.Abs(got-wantHourly/3600) > 1e-15 {
		t.Errorf("PricePerSecond = %v, want %v", got, wantHourly/3600)
	}
}

func TestClusterWithDifferentExtraVMType(t *testing.T) {
	small := VMType{Name: "t2.small", Family: "t2", Size: "small", VCPUs: 1, MemoryGB: 2, PricePerHour: 0.023}
	c := Cluster{VM: validVM(), Workers: 4, ExtraVMs: 1, ExtraVMsType: &small}
	want := 4*0.1856 + 0.023
	if got := c.PricePerHour(); math.Abs(got-want) > 1e-12 {
		t.Errorf("PricePerHour = %v, want %v", got, want)
	}
}

func TestClusterCost(t *testing.T) {
	c := Cluster{VM: validVM(), Workers: 10}
	cost, err := c.Cost(3600)
	if err != nil {
		t.Fatalf("Cost error: %v", err)
	}
	if math.Abs(cost-10*0.1856) > 1e-12 {
		t.Errorf("Cost(1 hour) = %v, want %v", cost, 10*0.1856)
	}
	if _, err := c.Cost(-1); err == nil {
		t.Error("negative runtime should error")
	}
	zero, err := c.Cost(0)
	if err != nil || zero != 0 {
		t.Errorf("Cost(0) = %v, %v, want 0, nil", zero, err)
	}
}

func TestQuickClusterCostScalesLinearly(t *testing.T) {
	property := func(workersRaw uint8, secondsRaw float64) bool {
		workers := int(workersRaw%100) + 1
		seconds := math.Abs(math.Mod(secondsRaw, 1e6))
		c := Cluster{VM: validVM(), Workers: workers}
		c1, err1 := c.Cost(seconds)
		c2, err2 := c.Cost(2 * seconds)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(c2-2*c1) < 1e-9*(1+c2)
	}
	if err := quick.Check(property, nil); err != nil {
		t.Errorf("cost does not scale linearly with runtime: %v", err)
	}
}
