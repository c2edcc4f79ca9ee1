package transport

import "entitytrace/internal/obs"

// Per-transport traffic counters. Handles are cached per transport name
// so steady-state accounting is a pair of atomic adds per frame.
type transportMetrics struct {
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter
	messagesIn  *obs.Counter
	messagesOut *obs.Counter
}

var (
	tcpMetrics    = newTransportMetrics("tcp")
	udpMetrics    = newTransportMetrics("udp")
	inprocMetrics = newTransportMetrics("inproc")
)

func newTransportMetrics(name string) *transportMetrics {
	return &transportMetrics{
		bytesIn:     obs.Default.Counter(obs.WithLabel("transport_bytes_in_total", "transport", name)),
		bytesOut:    obs.Default.Counter(obs.WithLabel("transport_bytes_out_total", "transport", name)),
		messagesIn:  obs.Default.Counter(obs.WithLabel("transport_messages_in_total", "transport", name)),
		messagesOut: obs.Default.Counter(obs.WithLabel("transport_messages_out_total", "transport", name)),
	}
}

// recordSend accounts outbound frames totalling n bytes.
func (m *transportMetrics) recordSend(frames, n int) {
	m.bytesOut.Add(uint64(n))
	m.messagesOut.Add(uint64(frames))
}

// recordRecv accounts one inbound frame of n bytes.
func (m *transportMetrics) recordRecv(n int) {
	m.bytesIn.Add(uint64(n))
	m.messagesIn.Inc()
}
