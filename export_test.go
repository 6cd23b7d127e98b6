package ghost

import "reflect"

// ObserverCounts counts what observes m: its kernel's switch, idle and
// wake hooks, the entries of its ghOSt class's observer lists, and its
// fault injector's observers (0 without a plan). Those fields are
// unexported in their own packages, so it reads them by reflection.
func ObserverCounts(m *Machine) (switches, idles, wakes, observers, faultObservers int) {
	k := reflect.ValueOf(m.k).Elem()
	switches = k.FieldByName("switchHooks").Len()
	idles = k.FieldByName("idleHooks").Len()
	wakes = k.FieldByName("wakeHooks").Len()
	obs := reflect.ValueOf(m.Ghost).Elem().FieldByName("obs")
	for i := 0; i < obs.NumField(); i++ {
		observers += obs.Field(i).Len()
	}
	if in := m.k.Faults(); in != nil {
		faultObservers = reflect.ValueOf(in).Elem().FieldByName("obs").Len()
	}
	return
}
