package packet

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// flowCSVHeader is the column layout of the flow-record CSV format.
var flowCSVHeader = []string{
	"link", "src_ip", "dst_ip", "src_port", "dst_port", "proto",
	"start", "end", "bytes", "packets", "syn",
}

// WriteCSV writes both directions of the trace as CSV with a "link"
// column ("ab" or "ba"), so a trace can be stored and re-analyzed
// without regeneration.
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(flowCSVHeader); err != nil {
		return fmt.Errorf("packet: write csv header: %w", err)
	}
	write := func(link string, flows []FlowRecord) error {
		row := make([]string, len(flowCSVHeader))
		for i := range flows {
			fr := &flows[i]
			row[0] = link
			row[1] = strconv.FormatUint(uint64(fr.Tuple.SrcIP), 10)
			row[2] = strconv.FormatUint(uint64(fr.Tuple.DstIP), 10)
			row[3] = strconv.FormatUint(uint64(fr.Tuple.SrcPort), 10)
			row[4] = strconv.FormatUint(uint64(fr.Tuple.DstPort), 10)
			row[5] = strconv.FormatUint(uint64(fr.Tuple.Proto), 10)
			row[6] = strconv.FormatFloat(fr.Start, 'g', -1, 64)
			row[7] = strconv.FormatFloat(fr.End, 'g', -1, 64)
			row[8] = strconv.FormatInt(fr.Bytes, 10)
			row[9] = strconv.FormatInt(fr.Packets, 10)
			row[10] = strconv.FormatBool(fr.SYN)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("packet: write csv row: %w", err)
			}
		}
		return nil
	}
	if err := write("ab", tr.AB); err != nil {
		return err
	}
	if err := write("ba", tr.BA); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// ReadTraceCSV parses the WriteCSV format. Ground-truth fields of the
// returned Trace are zero (they are generation metadata, not part of
// the observable trace).
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("packet: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%w: empty trace csv", ErrTrace)
	}
	tr := &Trace{}
	for lineNo, rec := range records {
		if lineNo == 0 && rec[0] == "link" {
			continue
		}
		if len(rec) != len(flowCSVHeader) {
			return nil, fmt.Errorf("%w: line %d has %d fields, want %d",
				ErrTrace, lineNo+1, len(rec), len(flowCSVHeader))
		}
		fr, err := parseFlowRow(rec)
		if err != nil {
			return nil, fmt.Errorf("packet: read csv line %d: %w", lineNo+1, err)
		}
		switch rec[0] {
		case "ab":
			tr.AB = append(tr.AB, fr)
		case "ba":
			tr.BA = append(tr.BA, fr)
		default:
			return nil, fmt.Errorf("%w: line %d link %q", ErrTrace, lineNo+1, rec[0])
		}
	}
	return tr, nil
}

func parseFlowRow(rec []string) (FlowRecord, error) {
	var fr FlowRecord
	u32 := func(s string) (uint32, error) {
		v, err := strconv.ParseUint(s, 10, 32)
		return uint32(v), err
	}
	u16 := func(s string) (uint16, error) {
		v, err := strconv.ParseUint(s, 10, 16)
		return uint16(v), err
	}
	var err error
	if fr.Tuple.SrcIP, err = u32(rec[1]); err != nil {
		return fr, fmt.Errorf("src_ip: %w", err)
	}
	if fr.Tuple.DstIP, err = u32(rec[2]); err != nil {
		return fr, fmt.Errorf("dst_ip: %w", err)
	}
	if fr.Tuple.SrcPort, err = u16(rec[3]); err != nil {
		return fr, fmt.Errorf("src_port: %w", err)
	}
	if fr.Tuple.DstPort, err = u16(rec[4]); err != nil {
		return fr, fmt.Errorf("dst_port: %w", err)
	}
	proto, err := strconv.ParseUint(rec[5], 10, 8)
	if err != nil {
		return fr, fmt.Errorf("proto: %w", err)
	}
	fr.Tuple.Proto = uint8(proto)
	if fr.Start, err = strconv.ParseFloat(rec[6], 64); err != nil {
		return fr, fmt.Errorf("start: %w", err)
	}
	if fr.End, err = strconv.ParseFloat(rec[7], 64); err != nil {
		return fr, fmt.Errorf("end: %w", err)
	}
	if fr.Bytes, err = strconv.ParseInt(rec[8], 10, 64); err != nil {
		return fr, fmt.Errorf("bytes: %w", err)
	}
	if fr.Packets, err = strconv.ParseInt(rec[9], 10, 64); err != nil {
		return fr, fmt.Errorf("packets: %w", err)
	}
	if fr.SYN, err = strconv.ParseBool(rec[10]); err != nil {
		return fr, fmt.Errorf("syn: %w", err)
	}
	return fr, nil
}
