package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Version is the snapshot wire-format version this build reads and
// writes. Version 3 moved a runner's post-step action from its kernel
// thread record to its agent-set record (RunnerRec.Pending).
const Version = 3

var (
	// ErrVersion is returned when decoding a snapshot written by an
	// incompatible format version.
	ErrVersion = errors.New("unsupported snapshot version")
	// ErrCorrupt is returned when a snapshot fails structural validation
	// (bad magic, checksum mismatch, truncation).
	ErrCorrupt = errors.New("corrupt snapshot")
)

// ComponentRec is one serialized machine component.
type ComponentRec struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	Data []byte `json:"data,omitempty"`
}

// EventRec is one serialized pending engine event, named by the
// sim.EventKind its owner declares for it: Kind is that kind's name and
// Ref or Args the fields its Save wrote, or, for a component's event,
// Kind is "component", Key the component's key and Sub the kind's name.
type EventRec struct {
	At   int64   `json:"at"`
	Seq  uint64  `json:"seq"`
	Kind string  `json:"kind"`
	Key  string  `json:"key,omitempty"`
	Sub  string  `json:"sub,omitempty"`
	Ref  int64   `json:"ref,omitempty"`
	Args []int64 `json:"args,omitempty"`
}

// CoreImage is the serialized machine state. The forward digest is
// computed over its JSON form.
type CoreImage struct {
	Topology hw.Config    `json:"topology"`
	Cost     hw.CostModel `json:"cost"`

	Now      int64  `json:"now"`
	Seq      uint64 `json:"seq"`
	Executed uint64 `json:"executed"`
	MaxQueue int    `json:"maxQueue"`

	Kernel     *kernel.KernelImage `json:"kernel"`
	Ghost      *ghostcore.ClassRec `json:"ghost,omitempty"`
	Sets       []*agentsdk.SetRec  `json:"sets,omitempty"`
	Components []ComponentRec      `json:"components,omitempty"`
	Events     []EventRec          `json:"events,omitempty"`
}

// Image is a decoded snapshot.
type Image struct {
	Core *CoreImage

	coreJSON []byte
}

// NewImage wraps freshly saved state into an Image (Save calls this; it
// is exported for tests that construct images directly).
func NewImage(core *CoreImage) (*Image, error) {
	cj, err := json.Marshal(core)
	if err != nil {
		return nil, err
	}
	return &Image{Core: core, coreJSON: cj}, nil
}

// Digest returns the hex sha256 of the serialized core state — the
// machine-identity fingerprint used by the determinism gates.
func (img *Image) Digest() string {
	sum := sha256.Sum256(img.coreJSON)
	return hex.EncodeToString(sum[:])
}

// Now returns the simulated time the snapshot was taken at.
func (img *Image) Now() sim.Time { return sim.Time(img.Core.Now) }

// magic identifies the snapshot container format.
var magic = [8]byte{'g', 'h', 'o', 's', 't', 's', 'n', 'p'}

// Encode writes the snapshot container: magic, version, the
// length-prefixed core JSON section, and a trailing sha256 of everything
// after the magic.
func (img *Image) Encode(w io.Writer) error {
	var body bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], Version)
	body.Write(hdr[:])
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(img.coreJSON)))
	body.Write(hdr[:])
	body.Write(img.coreJSON)
	sum := sha256.Sum256(body.Bytes())
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return err
	}
	_, err := w.Write(sum[:])
	return err
}

// Decode reads a snapshot container, returning ErrVersion for a format
// version this build does not speak and ErrCorrupt for bad magic, a
// checksum mismatch, or truncation. The section length in the header is
// unverified until the checksum is, so the section is read through a
// limited reader: memory follows the bytes actually present, never the
// claimed length.
func Decode(r io.Reader) (*Image, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrCorrupt, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if version := binary.LittleEndian.Uint32(hdr[:4]); version != Version {
		return nil, fmt.Errorf("%w: snapshot is v%d, this build speaks v%d", ErrVersion, version, Version)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	coreLen := int64(binary.LittleEndian.Uint32(hdr[4:]))
	cj, err := io.ReadAll(io.LimitReader(r, coreLen))
	if err != nil {
		return nil, fmt.Errorf("%w: core section: %v", ErrCorrupt, err)
	}
	if int64(len(cj)) != coreLen {
		return nil, fmt.Errorf("%w: truncated body: %d of %d bytes", ErrCorrupt, len(cj), coreLen)
	}
	var sum [sha256.Size]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated checksum: %v", ErrCorrupt, err)
	}
	h := sha256.New()
	h.Write(hdr[:])
	h.Write(cj)
	if !bytes.Equal(h.Sum(nil), sum[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	core := &CoreImage{}
	if err := json.Unmarshal(cj, core); err != nil {
		return nil, fmt.Errorf("%w: core section: %v", ErrCorrupt, err)
	}
	for i := range core.Events {
		if err := renameTickerEvent(&core.Events[i]); err != nil {
			return nil, fmt.Errorf("%w: event %d: %v", ErrCorrupt, i, err)
		}
	}
	return &Image{Core: core, coreJSON: cj}, nil
}

// renameTickerEvent rewrites a pending timer that older images stored
// as a "sim.ticker" event, named by its ticker's key (their "tickers"
// table, which held only construction constants, is ignored), into the
// pre-bound event kind that replaced it.
func renameTickerEvent(ev *EventRec) error {
	if ev.Kind != "sim.ticker" {
		return nil
	}
	var n int64
	scan := func(format string) bool {
		_, err := fmt.Sscanf(ev.Key, format, &n)
		return err == nil
	}
	switch {
	case ev.Key == "cfs.balance":
		ev.Kind = "kernel.cfs.balance"
	case scan("kernel.tick.%d"):
		ev.Kind, ev.Ref = "kernel.tick", n
	case scan("enclave.%d.watchdog"):
		ev.Kind, ev.Args = "ghost.watchdog", []int64{n}
	default:
		return fmt.Errorf("unknown ticker %q", ev.Key)
	}
	ev.Key = ""
	return nil
}
