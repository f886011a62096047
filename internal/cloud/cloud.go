// Package cloud models the rented infrastructure side of the optimization
// problem: VM types with their hardware characteristics and on-demand hourly
// prices, cluster specifications, and the per-second billing scheme the paper
// assumes when computing C(x) = T(x) · U(x) (paper §2).
package cloud

import (
	"errors"
	"fmt"
	"sort"
)

// ErrUnknownVMType is returned when a VM type name is not in the catalogue.
var ErrUnknownVMType = errors.New("cloud: unknown VM type")

// VMType describes one rentable virtual machine flavour.
type VMType struct {
	// Name is the provider identifier, e.g. "t2.xlarge".
	Name string
	// Family is the instance family, e.g. "t2", "c4".
	Family string
	// Size is the size within the family, e.g. "small", "xlarge".
	Size string
	// VCPUs is the number of virtual CPUs.
	VCPUs int
	// MemoryGB is the amount of RAM in gigabytes.
	MemoryGB float64
	// PricePerHour is the on-demand price in USD per hour.
	PricePerHour float64
}

// Validate checks that the VM type definition is internally consistent.
func (v VMType) Validate() error {
	if v.Name == "" {
		return errors.New("cloud: VM type has empty name")
	}
	if v.VCPUs <= 0 {
		return fmt.Errorf("cloud: VM type %q has non-positive vCPU count %d", v.Name, v.VCPUs)
	}
	if v.MemoryGB <= 0 {
		return fmt.Errorf("cloud: VM type %q has non-positive memory %v", v.Name, v.MemoryGB)
	}
	if v.PricePerHour <= 0 {
		return fmt.Errorf("cloud: VM type %q has non-positive price %v", v.Name, v.PricePerHour)
	}
	return nil
}

// Catalog is an immutable collection of VM types indexed by name.
type Catalog struct {
	byName map[string]VMType
	names  []string
}

// NewCatalog builds a catalogue from the given VM types, rejecting duplicates
// and invalid entries.
func NewCatalog(types []VMType) (*Catalog, error) {
	if len(types) == 0 {
		return nil, errors.New("cloud: catalogue requires at least one VM type")
	}
	c := &Catalog{byName: make(map[string]VMType, len(types))}
	for _, v := range types {
		if err := v.Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.byName[v.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate VM type %q", v.Name)
		}
		c.byName[v.Name] = v
		c.names = append(c.names, v.Name)
	}
	sort.Strings(c.names)
	return c, nil
}

// Lookup returns the VM type with the given name.
func (c *Catalog) Lookup(name string) (VMType, error) {
	v, ok := c.byName[name]
	if !ok {
		return VMType{}, fmt.Errorf("%w: %q", ErrUnknownVMType, name)
	}
	return v, nil
}

// Names returns the VM type names in the catalogue, sorted alphabetically.
func (c *Catalog) Names() []string {
	return append([]string(nil), c.names...)
}

// Cluster is a homogeneous set of worker VMs plus an optional number of
// auxiliary VMs of the same type (e.g. the parameter server used by the
// Tensorflow jobs in the paper, which deploy one extra VM besides the
// workers).
type Cluster struct {
	VM           VMType
	Workers      int
	ExtraVMs     int
	ExtraVMsType *VMType
}

// Validate checks that the cluster specification makes sense.
func (c Cluster) Validate() error {
	if err := c.VM.Validate(); err != nil {
		return err
	}
	if c.Workers <= 0 {
		return fmt.Errorf("cloud: cluster requires at least one worker, got %d", c.Workers)
	}
	if c.ExtraVMs < 0 {
		return fmt.Errorf("cloud: negative extra VM count %d", c.ExtraVMs)
	}
	if c.ExtraVMsType != nil {
		if err := c.ExtraVMsType.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalVCPUs returns the aggregate number of vCPUs across worker VMs.
func (c Cluster) TotalVCPUs() int { return c.Workers * c.VM.VCPUs }

// TotalMemoryGB returns the aggregate worker memory in gigabytes.
func (c Cluster) TotalMemoryGB() float64 { return float64(c.Workers) * c.VM.MemoryGB }

// PricePerHour returns the rental price of the whole cluster in USD per hour.
func (c Cluster) PricePerHour() float64 {
	price := float64(c.Workers) * c.VM.PricePerHour
	if c.ExtraVMs > 0 {
		extraType := c.VM
		if c.ExtraVMsType != nil {
			extraType = *c.ExtraVMsType
		}
		price += float64(c.ExtraVMs) * extraType.PricePerHour
	}
	return price
}

// PricePerSecond returns the rental price of the whole cluster in USD per
// second, matching the per-second billing scheme assumed in the paper.
func (c Cluster) PricePerSecond() float64 { return c.PricePerHour() / 3600 }

// Cost returns the monetary cost of holding the cluster for the given
// duration in seconds: C(x) = T(x) · U(x) under per-second billing.
func (c Cluster) Cost(runtimeSeconds float64) (float64, error) {
	if runtimeSeconds < 0 {
		return 0, fmt.Errorf("cloud: negative runtime %v", runtimeSeconds)
	}
	return runtimeSeconds * c.PricePerSecond(), nil
}
