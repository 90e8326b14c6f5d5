package vm

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"edgescope/internal/timeseries"
)

// The CSV trace format mirrors the released EdgeWorkloadsTraces layout: a
// site inventory, a VM table, and long-form usage tables. It allows running
// edgescope's entire §4 analysis on externally supplied traces.
//
//	sites.csv:  site_id,name,province,servers,cores_per_server,mem_gb_per_server
//	vms.csv:    vm_id,app_id,customer_id,site,server,vcpus,mem_gb,disk_gb
//	cpu.csv:    vm_id,slot,cpu_pct          (slot = sample index)
//	bw.csv:     vm_id,slot,public_mbps
//
// Timestamps are reconstructed from the dataset Start and the configured
// sampling intervals. Samples are written in the shortest form that parses
// back to the same float64, so an export/import round trip is lossless: an
// imported generated trace holds exactly the samples its recipes replay.

// CSVOptions parameterises ExportCSV/ImportCSV.
type CSVOptions struct {
	Start       time.Time
	CPUInterval time.Duration
	BWInterval  time.Duration
}

func (o *CSVOptions) fill() {
	if o.Start.IsZero() {
		o.Start = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	}
	if o.CPUInterval == 0 {
		o.CPUInterval = 5 * time.Minute
	}
	if o.BWInterval == 0 {
		o.BWInterval = 15 * time.Minute
	}
}

// ExportCSV writes the dataset's four CSV tables.
func ExportCSV(d *Dataset, sites, vms, cpu, bw io.Writer) error {
	sw := csv.NewWriter(sites)
	if err := sw.Write([]string{"site_id", "name", "province", "servers", "cores_per_server", "mem_gb_per_server"}); err != nil {
		return err
	}
	for i, s := range d.Sites {
		cores, mem := 0, 0
		if len(s.Servers) > 0 {
			cores, mem = s.Servers[0].CPUCores, s.Servers[0].MemGB
		}
		if err := sw.Write([]string{
			strconv.Itoa(i), s.Name, s.Province,
			strconv.Itoa(len(s.Servers)), strconv.Itoa(cores), strconv.Itoa(mem),
		}); err != nil {
			return err
		}
	}
	sw.Flush()
	if err := sw.Error(); err != nil {
		return err
	}

	vw := csv.NewWriter(vms)
	if err := vw.Write([]string{"vm_id", "app_id", "customer_id", "site", "server", "vcpus", "mem_gb", "disk_gb"}); err != nil {
		return err
	}
	for _, v := range d.VMs {
		if err := vw.Write([]string{
			strconv.Itoa(v.ID), strconv.Itoa(v.App), strconv.Itoa(v.Customer),
			strconv.Itoa(v.Site), strconv.Itoa(v.Server),
			strconv.Itoa(v.VCPUs), strconv.Itoa(v.MemGB), strconv.Itoa(v.DiskGB),
		}); err != nil {
			return err
		}
	}
	vw.Flush()
	if err := vw.Error(); err != nil {
		return err
	}

	cpuSeries := func(v *VM, buf *timeseries.Series) *timeseries.Series {
		if v.cpu == nil {
			return nil
		}
		return v.CPUSeries(buf)
	}
	if err := writeUsage(cpu, "cpu_pct", d.VMs, cpuSeries); err != nil {
		return err
	}
	return writeUsage(bw, "public_mbps", d.VMs, func(v *VM, _ *timeseries.Series) *timeseries.Series { return v.PublicBW })
}

// writeUsage writes one long-form usage table. sel returns a VM's series,
// filling buf when it has to produce one, or nil to skip the VM.
func writeUsage(w io.Writer, col string, vms []*VM, sel func(v *VM, buf *timeseries.Series) *timeseries.Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"vm_id", "slot", col}); err != nil {
		return err
	}
	var buf timeseries.Series
	for _, v := range vms {
		s := sel(v, &buf)
		if s == nil {
			continue
		}
		id := strconv.Itoa(v.ID)
		for slot, val := range s.Values {
			if err := cw.Write([]string{id, strconv.Itoa(slot), strconv.FormatFloat(val, 'g', -1, 64)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ImportCSV reconstructs a dataset from the four CSV tables.
func ImportCSV(platform string, sites, vms, cpu, bw io.Reader, opts CSVOptions) (*Dataset, error) {
	opts.fill()
	d := &Dataset{Platform: platform, Start: opts.Start}

	srecs, err := readAll(sites, 6)
	if err != nil {
		return nil, fmt.Errorf("vm: sites csv: %w", err)
	}
	for _, rec := range srecs {
		n, err1 := strconv.Atoi(rec[3])
		cores, err2 := strconv.Atoi(rec[4])
		mem, err3 := strconv.Atoi(rec[5])
		if err1 != nil || err2 != nil || err3 != nil || n <= 0 {
			return nil, fmt.Errorf("vm: bad site row %v", rec)
		}
		servers := make([]Server, n)
		for i := range servers {
			servers[i] = Server{CPUCores: cores, MemGB: mem}
		}
		d.Sites = append(d.Sites, &Site{Name: rec[1], Province: rec[2], Servers: servers})
	}

	vrecs, err := readAll(vms, 8)
	if err != nil {
		return nil, fmt.Errorf("vm: vms csv: %w", err)
	}
	// The VMs are built once their CPU column is read: New computes the
	// summaries from it.
	rows := make([]VM, 0, len(vrecs))
	byID := map[int]int{}
	for _, rec := range vrecs {
		vals := make([]int, 8)
		for i := range vals {
			v, err := strconv.Atoi(rec[i])
			if err != nil {
				return nil, fmt.Errorf("vm: bad vm row %v: %w", rec, err)
			}
			vals[i] = v
		}
		if _, dup := byID[vals[0]]; dup {
			return nil, fmt.Errorf("vm: duplicate vm_id %d", vals[0])
		}
		byID[vals[0]] = len(rows)
		rows = append(rows, VM{
			ID: vals[0], App: vals[1], Customer: vals[2],
			Site: vals[3], Server: vals[4],
			VCPUs: vals[5], MemGB: vals[6], DiskGB: vals[7],
		})
	}

	cpuVals, err := readUsage(cpu)
	if err != nil {
		return nil, fmt.Errorf("vm: cpu csv: %w", err)
	}
	bwVals, err := readUsage(bw)
	if err != nil {
		return nil, fmt.Errorf("vm: bw csv: %w", err)
	}
	for id := range cpuVals {
		if _, ok := byID[id]; !ok {
			return nil, fmt.Errorf("vm: cpu usage for unknown vm %d", id)
		}
	}
	for id, vals := range bwVals {
		i, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("vm: bandwidth for unknown vm %d", id)
		}
		rows[i].PublicBW = timeseries.New(opts.Start, opts.BWInterval, vals)
	}

	var maxDur time.Duration
	for i := range rows {
		var series *timeseries.Series
		if vals, ok := cpuVals[rows[i].ID]; ok {
			series = timeseries.New(opts.Start, opts.CPUInterval, vals)
			if dur := time.Duration(len(vals)) * opts.CPUInterval; dur > maxDur {
				maxDur = dur
			}
		}
		d.VMs = append(d.VMs, New(rows[i], series, nil))
	}
	d.Duration = maxDur
	return d, d.Validate()
}

// readAll parses a CSV with a header and a fixed column count.
func readAll(r io.Reader, cols int) ([][]string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = cols
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("empty csv")
	}
	return recs[1:], nil // skip header
}

// readUsage parses a long-form usage table into per-VM sample slices,
// requiring slots to arrive in order per VM.
func readUsage(r io.Reader) (map[int][]float64, error) {
	recs, err := readAll(r, 3)
	if err != nil {
		return nil, err
	}
	out := map[int][]float64{}
	for _, rec := range recs {
		id, err1 := strconv.Atoi(rec[0])
		slot, err2 := strconv.Atoi(rec[1])
		val, err3 := strconv.ParseFloat(rec[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("bad usage row %v", rec)
		}
		if slot != len(out[id]) {
			return nil, fmt.Errorf("vm %d: slot %d out of order (expected %d)", id, slot, len(out[id]))
		}
		out[id] = append(out[id], val)
	}
	return out, nil
}
