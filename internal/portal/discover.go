package portal

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/registry"
)

// DiscoverConfig builds a portal configuration by querying an NVO resource
// registry for the needed service types instead of hard-coding endpoints —
// the capability the paper lists as missing infrastructure ("a general
// registry of image and catalog services ... would allow the user to
// discover and choose the appropriate data resources rather than being
// limited to the ones that were hard-coded into the portal", §4.2/§5).
//
// All discovered Cone Search services are used (the first, by registry ID,
// becomes the primary catalog); all SIA services are searched for
// large-scale images; the first cutout and compute services are selected.
func DiscoverConfig(reg *registry.Client, clusters []ClusterEntry, hc *http.Client) (Config, error) {
	cfg := Config{Clusters: clusters, HTTPClient: hc}

	cones, err := reg.Query(registry.TypeConeSearch, "")
	if err != nil {
		return Config{}, fmt.Errorf("portal: registry cone query: %w", err)
	}
	for _, e := range cones {
		cfg.ConeServices = append(cfg.ConeServices, e.BaseURL)
	}

	sias, err := reg.Query(registry.TypeSIA, "")
	if err != nil {
		return Config{}, fmt.Errorf("portal: registry SIA query: %w", err)
	}
	for _, e := range sias {
		cfg.SIAServices = append(cfg.SIAServices, e.BaseURL)
	}

	cutouts, err := reg.Query(registry.TypeCutout, "")
	if err != nil {
		return Config{}, fmt.Errorf("portal: registry cutout query: %w", err)
	}
	if len(cutouts) > 0 {
		cfg.CutoutService = cutouts[0].BaseURL
	}

	computes, err := reg.Query(registry.TypeCompute, "")
	if err != nil {
		return Config{}, fmt.Errorf("portal: registry compute query: %w", err)
	}
	if len(computes) > 0 {
		cfg.ComputeService = computes[0].BaseURL
	}

	switch {
	case len(cfg.ConeServices) == 0:
		return Config{}, errors.New("portal: registry knows no cone-search service")
	case cfg.CutoutService == "":
		return Config{}, errors.New("portal: registry knows no cutout service")
	case cfg.ComputeService == "":
		return Config{}, errors.New("portal: registry knows no compute service")
	}
	return cfg, nil
}
