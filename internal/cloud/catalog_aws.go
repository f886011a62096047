package cloud

// This file embeds an on-demand price catalogue modelled after the AWS EC2
// instance types used in the paper's evaluation (Tables 2 and §5.1.2):
// the t2 family for the Tensorflow jobs, the c4/m4/r4 families for the Scout
// jobs, and the c4/m4/r3/i2 families for the CherryPick jobs. Prices are
// us-east-1 on-demand rates at the time the datasets were collected; only the
// *relative* prices matter for the optimizer, since the cost of a
// configuration is runtime × cluster price.

// awsTypes is the embedded catalogue definition.
var awsTypes = []VMType{
	// t2 family (Tensorflow jobs, Table 2).
	{Name: "t2.small", Family: "t2", Size: "small", VCPUs: 1, MemoryGB: 2, PricePerHour: 0.023},
	{Name: "t2.medium", Family: "t2", Size: "medium", VCPUs: 2, MemoryGB: 4, PricePerHour: 0.0464},
	{Name: "t2.xlarge", Family: "t2", Size: "xlarge", VCPUs: 4, MemoryGB: 16, PricePerHour: 0.1856},
	{Name: "t2.2xlarge", Family: "t2", Size: "2xlarge", VCPUs: 8, MemoryGB: 32, PricePerHour: 0.3712},

	// c4 family (Scout and CherryPick jobs).
	{Name: "c4.large", Family: "c4", Size: "large", VCPUs: 2, MemoryGB: 3.75, PricePerHour: 0.10},
	{Name: "c4.xlarge", Family: "c4", Size: "xlarge", VCPUs: 4, MemoryGB: 7.5, PricePerHour: 0.199},
	{Name: "c4.2xlarge", Family: "c4", Size: "2xlarge", VCPUs: 8, MemoryGB: 15, PricePerHour: 0.398},

	// m4 family (Scout and CherryPick jobs).
	{Name: "m4.large", Family: "m4", Size: "large", VCPUs: 2, MemoryGB: 8, PricePerHour: 0.10},
	{Name: "m4.xlarge", Family: "m4", Size: "xlarge", VCPUs: 4, MemoryGB: 16, PricePerHour: 0.20},
	{Name: "m4.2xlarge", Family: "m4", Size: "2xlarge", VCPUs: 8, MemoryGB: 32, PricePerHour: 0.40},

	// r4 family (Scout jobs).
	{Name: "r4.large", Family: "r4", Size: "large", VCPUs: 2, MemoryGB: 15.25, PricePerHour: 0.133},
	{Name: "r4.xlarge", Family: "r4", Size: "xlarge", VCPUs: 4, MemoryGB: 30.5, PricePerHour: 0.266},
	{Name: "r4.2xlarge", Family: "r4", Size: "2xlarge", VCPUs: 8, MemoryGB: 61, PricePerHour: 0.532},

	// r3 family (CherryPick jobs).
	{Name: "r3.large", Family: "r3", Size: "large", VCPUs: 2, MemoryGB: 15.25, PricePerHour: 0.166},
	{Name: "r3.xlarge", Family: "r3", Size: "xlarge", VCPUs: 4, MemoryGB: 30.5, PricePerHour: 0.333},
	{Name: "r3.2xlarge", Family: "r3", Size: "2xlarge", VCPUs: 8, MemoryGB: 61, PricePerHour: 0.665},

	// i2 family (CherryPick jobs; storage-optimized).
	{Name: "i2.large", Family: "i2", Size: "large", VCPUs: 2, MemoryGB: 15.25, PricePerHour: 0.213},
	{Name: "i2.xlarge", Family: "i2", Size: "xlarge", VCPUs: 4, MemoryGB: 30.5, PricePerHour: 0.853},
	{Name: "i2.2xlarge", Family: "i2", Size: "2xlarge", VCPUs: 8, MemoryGB: 61, PricePerHour: 1.705},
}

// AWSCatalog returns a catalogue with the EC2-style VM types used across the
// paper's three datasets.
func AWSCatalog() (*Catalog, error) {
	return NewCatalog(awsTypes)
}
