package snap

import (
	"fmt"
	"reflect"

	"ghost/internal/agentsdk"
	"ghost/internal/sim"
)

// eventKey is what a record names its kind by: the kind's name, or for a
// component's event "component", the component's key and the name.
type eventKey struct{ kind, key, sub string }

// eventRow is one declared event kind and the key records name it by.
type eventRow struct {
	*sim.EventKind
	rec eventKey
}

// eventIndex resolves pending events through the kinds their owners
// declare: by callback code at save, by record key at restore.
type eventIndex struct {
	byCode map[uintptr][]eventRow
	byKey  map[eventKey]eventRow
}

func newEventIndex(t *Target, sets []*agentsdk.AgentSet, comps []ComponentEntry) (*eventIndex, error) {
	type owner struct {
		key   string
		kinds []sim.EventKind
	}
	owners := []owner{{"", t.K.SnapshotEvents()}, {"", agentsdk.SnapshotEvents(sets)}}
	if t.Ghost != nil {
		owners = append(owners, owner{"", t.Ghost.SnapshotEvents()})
	}
	for _, ce := range comps {
		if evs, ok := ce.C.(ComponentEvents); ok {
			owners = append(owners, owner{ce.Key, evs.SnapshotEvents()})
		}
	}
	ix := &eventIndex{byCode: map[uintptr][]eventRow{}, byKey: map[eventKey]eventRow{}}
	for _, o := range owners {
		for i := range o.kinds {
			row := eventRow{&o.kinds[i], eventKey{kind: o.kinds[i].Name}}
			if o.key != "" {
				row.rec = eventKey{"component", o.key, row.Name}
			}
			if _, dup := ix.byKey[row.rec]; dup {
				return nil, fmt.Errorf("snap: event %+v declared twice", row.rec)
			}
			ix.byKey[row.rec] = row
			code := reflect.ValueOf(row.Fn).Pointer()
			ix.byCode[code] = append(ix.byCode[code], row)
		}
	}
	return ix, nil
}

// record names a pending event by the first declared kind whose
// callback it runs and whose Save takes its argument.
func (ix *eventIndex) record(pe sim.PendingEvent) (EventRec, error) {
	rec := EventRec{At: int64(pe.At), Seq: pe.Seq}
	if pe.AFn == nil {
		return rec, fmt.Errorf("snap: pending event at %v is a plain closure (Machine.After, fault plans); not snapshottable", pe.At)
	}
	for _, row := range ix.byCode[reflect.ValueOf(pe.AFn).Pointer()] {
		if f, ok := row.Save(pe.Arg); ok {
			rec.Kind, rec.Key, rec.Sub, rec.Ref, rec.Args = row.rec.kind, row.rec.key, row.rec.sub, f.Ref, f.Args
			return rec, nil
		}
	}
	return rec, fmt.Errorf("snap: unclassifiable pending event at %v (arg %T); register its owner as a snapshot component", pe.At, pe.Arg)
}

// restore files a recorded event with its original (at, seq) pair on
// the argument its kind resolves, refusing a second event for an
// argument that holds one.
func (ix *eventIndex) restore(eng *sim.Engine, erec *EventRec) error {
	k := eventKey{erec.Kind, erec.Key, erec.Sub}
	row, ok := ix.byKey[k]
	if !ok {
		return fmt.Errorf("no owner declares event %+v", k)
	}
	arg, err := row.Load(sim.EventFields{Ref: erec.Ref, Args: erec.Args})
	if err != nil {
		return fmt.Errorf("%s: %v", row.Name, err)
	}
	if row.Pending != nil && row.Pending(arg) {
		return fmt.Errorf("a second pending %s event", row.Name)
	}
	at := sim.Time(erec.At)
	ev, err := eng.RestoreEvent(at, erec.Seq, row.Fn, arg)
	if err != nil {
		return err
	}
	if row.Adopt != nil {
		row.Adopt(arg, at, ev)
	}
	return nil
}
