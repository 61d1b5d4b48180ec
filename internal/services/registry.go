package services

// Interface names used in the registry.
const (
	InterfaceSIA  = "SIA"
	InterfaceCone = "Cone Search"
)

// RegistryEntry describes one data collection and the protocol interfaces it
// implements.
type RegistryEntry struct {
	DataCenter string
	Collection string
	Interfaces []string
}

// Table1 is the paper's Table 1: the data collections and interfaces the
// Galaxy Morphology application consumed. The simulated archives in this
// repository stand in for each of them.
func Table1() []RegistryEntry {
	return []RegistryEntry{
		{
			DataCenter: "Chandra X-ray Center",
			Collection: "Chandra Data Archive",
			Interfaces: []string{InterfaceSIA},
		},
		{
			DataCenter: "NASA High-Energy Astrophysical Science Archive (HEASARC)",
			Collection: "ROSAT X-ray data",
			Interfaces: []string{InterfaceSIA},
		},
		{
			DataCenter: "NASA Infrared Processing and Analysis Center (IPAC)",
			Collection: "NASA Extragalactic Database (NED)",
			Interfaces: []string{InterfaceCone},
		},
		{
			DataCenter: "Canadian Astrophysical Data Center (CADC)",
			Collection: "Canadian Network for Cosmology (CNOC) Survey",
			Interfaces: []string{InterfaceSIA, InterfaceCone},
		},
		{
			DataCenter: "Multimission Archive at Space Telescope (MAST)",
			Collection: "Digitized Sky Survey (DSS)",
			Interfaces: []string{InterfaceSIA, InterfaceCone},
		},
	}
}
