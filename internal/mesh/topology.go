package mesh

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// TopoLink is one line of a topology file: a link plus the server it
// belongs to. A shared topology file describes the whole mesh; each server
// takes the links whose Server matches its own name.
type TopoLink struct {
	// Server is the server that runs the link (the source side).
	Server string
	Link   Link
}

// ParseTopology reads a mesh topology description: one link per line,
//
//	link NAME SRC DST GLOB hot|cold INTERVAL pull|push|both [FORMULA...]
//
// Blank lines and #-comments are ignored; the leading "link" keyword is
// optional. The rest of the line is a ParseLink link with SRC after NAME.
func ParseTopology(r io.Reader) ([]TopoLink, error) {
	var out []TopoLink
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "link" {
			fields = fields[1:]
		}
		if len(fields) < 7 {
			return nil, fmt.Errorf("topology line %d: want NAME SRC DST GLOB hot|cold INTERVAL pull|push|both [FORMULA], got %q", lineNo, line)
		}
		src := fields[1]
		l, err := ParseLink(append([]string{fields[0]}, fields[2:]...))
		if err != nil {
			return nil, fmt.Errorf("topology line %d: %w", lineNo, err)
		}
		key := src + "!!" + l.Name
		if seen[key] {
			return nil, fmt.Errorf("topology line %d: duplicate link %s on server %s", lineNo, l.Name, src)
		}
		seen[key] = true
		out = append(out, TopoLink{Server: src, Link: l})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseLink parses the one link syntax shared by topology files, the
// dominod meshlink directive and nsfadmin mesh add:
//
//	NAME PEER GLOB hot|cold INTERVAL pull|push|both [FORMULA...]
//
// INTERVAL is a Go duration ("30s", "5m"); everything after the direction
// is the selection formula, verbatim.
func ParseLink(fields []string) (Link, error) {
	if len(fields) < 6 {
		return Link{}, fmt.Errorf("mesh: want NAME PEER GLOB hot|cold INTERVAL pull|push|both [FORMULA...], got %q", strings.Join(fields, " "))
	}
	class, err := ParseClass(fields[3])
	if err != nil {
		return Link{}, err
	}
	interval, err := time.ParseDuration(fields[4])
	if err != nil {
		return Link{}, fmt.Errorf("mesh: bad interval %q: %v", fields[4], err)
	}
	dir, err := ParseDirection(fields[5])
	if err != nil {
		return Link{}, err
	}
	return Link{Name: fields[0], Peer: fields[1], Glob: fields[2], Formula: strings.Join(fields[6:], " "),
		Direction: dir, Class: class, Interval: interval}, nil
}

// LinksFor filters a topology down to the links one server runs.
func LinksFor(topo []TopoLink, server string) []Link {
	var out []Link
	for _, t := range topo {
		if strings.EqualFold(t.Server, server) {
			out = append(out, t.Link)
		}
	}
	return out
}

// Ring builds a ring topology over the servers: each server links to its
// successor with the template's glob/formula/class/interval/direction.
// With Direction Both (the recommended setting) changes flow around the
// ring in both directions and any single severed edge leaves the mesh
// connected.
func Ring(servers []string, template Link) []TopoLink {
	out := make([]TopoLink, 0, len(servers))
	for i, s := range servers {
		l := template
		l.Name = fmt.Sprintf("ring-%d", i)
		l.Peer = servers[(i+1)%len(servers)]
		out = append(out, TopoLink{Server: s, Link: l})
	}
	return out
}

// HubSpoke builds a hub-and-spoke topology: every spoke links to the hub.
// The hub runs no links of its own — spokes both pull and push, the
// Domino pattern for branch servers replicating with a hub.
func HubSpoke(hub string, spokes []string, template Link) []TopoLink {
	out := make([]TopoLink, 0, len(spokes))
	for i, s := range spokes {
		l := template
		l.Name = fmt.Sprintf("spoke-%d", i)
		l.Peer = hub
		out = append(out, TopoLink{Server: s, Link: l})
	}
	return out
}
