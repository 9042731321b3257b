package dataset

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Manifest is the deployment-level metadata written by `homesight
// simulate` next to the per-gateway CSVs: the configuration and per-home
// ground truth.
type Manifest struct {
	Config struct {
		Seed  int64     `json:"Seed"`
		Homes int       `json:"Homes"`
		Start time.Time `json:"Start"`
		Weeks int       `json:"Weeks"`
	} `json:"config"`
	Homes []ManifestHome `json:"homes"`
}

// ManifestHome is one home's ground-truth record.
type ManifestHome struct {
	ID          string `json:"id"`
	Archetype   string `json:"archetype"`
	Residents   int    `json:"residents"`
	Reliability string `json:"reliability"`
	Fiber       bool   `json:"fiber"`
	Devices     int    `json:"devices"`
}

// LoadDir reads a deployment exported by `homesight simulate` or
// `homesight store export`: deployment.json plus one <id>.csv per
// gateway. It returns the gateways in manifest order. For deployments
// too large to hold in memory at once, use ForEachGateway instead.
func LoadDir(dir string) (*Manifest, []*Gateway, error) {
	var gateways []*Gateway
	man, err := ForEachGateway(dir, func(_ ManifestHome, g *Gateway) error {
		gateways = append(gateways, g)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return man, gateways, nil
}

// ForEachGateway streams a deployment one gateway at a time, in manifest
// order: fn receives each manifest home together with its fully loaded
// Gateway, and nothing else is retained between calls — memory stays
// bounded by the largest single gateway, however many homes the export
// holds. An error from fn aborts the walk.
func ForEachGateway(dir string, fn func(mh ManifestHome, g *Gateway) error) (*Manifest, error) {
	man, err := LoadManifest(filepath.Join(dir, "deployment.json"))
	if err != nil {
		return nil, err
	}
	minutes := man.Config.Weeks * 7 * 24 * 60
	for _, mh := range man.Homes {
		g, err := LoadGatewayCSV(filepath.Join(dir, mh.ID+".csv"), mh.ID, man.Config.Start, minutes)
		if err != nil {
			return nil, fmt.Errorf("dataset: loading %s: %w", mh.ID, err)
		}
		g.Residents = mh.Residents
		if err := fn(mh, g); err != nil {
			return nil, err
		}
	}
	return man, nil
}

// LoadManifest reads and validates a deployment manifest.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	var man Manifest
	if err := json.NewDecoder(f).Decode(&man); err != nil {
		return nil, fmt.Errorf("dataset: parsing manifest: %w", err)
	}
	if man.Config.Weeks <= 0 || man.Config.Start.IsZero() {
		return nil, fmt.Errorf("dataset: manifest missing campaign configuration")
	}
	if len(man.Homes) == 0 {
		return nil, fmt.Errorf("dataset: manifest lists no homes")
	}
	return &man, nil
}

// LoadGatewayCSV reads one gateway's CSV export.
func LoadGatewayCSV(path, id string, start time.Time, minutes int) (*Gateway, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	return ReadCSV(f, id, start, minutes)
}
