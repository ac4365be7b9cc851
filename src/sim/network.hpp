// In-process network simulator standing in for the paper's Mininet
// testbed (§6.1/§6.2 and Appendix A).
//
// Delivery runs on an event-queue kernel. Every hop is a timestamped
// event drained in deterministic (time, seq) order (sim/event_queue.hpp),
// node lookups go through hash indexes, and per-link latency/bandwidth
// (set_link) turn simulated time into a real dimension. This is what
// lets generated topologies of 1k+ hosts/routers (sim/topology.hpp) run
// production-style soak traffic (sim/soak.hpp) efficiently. The capture
// logs are pinned by the Appendix-A pcap hashes recorded against the
// seed's synchronous simulator (tests/test_sim_kernel.cpp).
//
// Topology mirrors Appendix A by default: one router with three subnets
// (10.0.1.1/24, 192.168.2.1/24, 172.64.3.1/24), a client on the first and
// servers on the others. Hosts and the router exchange raw IPv4 datagrams;
// every transmission is recorded in a capture log that the
// PacketInspector (our tcpdump) later validates.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/pcap.hpp"
#include "net/wire_image.hpp"
#include "sim/event_queue.hpp"
#include "sim/responder.hpp"
#include "util/arena.hpp"

namespace sage::sim {

/// One recorded transmission: the node that put the packet on the wire,
/// the raw bytes (starting at the IP header), and the simulated time the
/// packet hit the wire.
///
/// `packet` is a view into the owning Network's run arena: valid until
/// that Network's clear_transient() or destruction (docs/MEMORY.md).
/// Copy entries out with own_capture() if they must outlive the run.
struct CaptureEntry {
  std::string node;
  net::WireImage packet;
  std::uint64_t time_ns = 0;
};

/// A deep copy of a CaptureEntry with no arena dependency, for call
/// sites that keep captures after the Network (or its arena epoch) is
/// gone — the differential fuzzer's per-case captures.
struct OwnedCaptureEntry {
  std::string node;
  std::vector<std::uint8_t> packet;
  std::uint64_t time_ns = 0;
};

std::vector<OwnedCaptureEntry> own_capture(
    const std::vector<CaptureEntry>& capture);

/// A listening UDP port on a host (traceroute probes to closed ports are
/// what elicit port-unreachable). Payload views share the run arena.
struct UdpSocket {
  std::uint16_t port = 0;
  std::vector<net::WireImage> received;  // raw UDP payloads
};

class Network;
class Router;

/// End host: one interface, optional ICMP responder, UDP sockets.
class Host {
 public:
  Host(std::string name, net::IpAddr address, int prefix_len)
      : name_(std::move(name)), address_(address), prefix_len_(prefix_len) {}

  const std::string& name() const { return name_; }
  net::IpAddr address() const { return address_; }
  int prefix_len() const { return prefix_len_; }

  /// Attach the ICMP implementation this host runs (non-owning; the
  /// harness owns responders so one can be shared across scenario runs).
  void set_responder(IcmpResponder* responder) { responder_ = responder; }

  void open_udp_port(std::uint16_t port) { udp_sockets_[port] = UdpSocket{port, {}}; }
  const UdpSocket* udp_socket(std::uint16_t port) const;

  /// Packets addressed to this host that were not consumed by a protocol
  /// handler (e.g. ICMP replies waiting for a client to read them).
  /// Entries view the owning Network's run arena; copy with to_vector()
  /// to keep bytes past clear_transient().
  std::vector<net::WireImage>& inbox() { return inbox_; }

 private:
  friend class Network;
  std::string name_;
  net::IpAddr address_;
  int prefix_len_;
  IcmpResponder* responder_ = nullptr;
  /// Gateway router cached by Network::ensure_index() so the kernel's
  /// per-packet egress decision is a pointer load, not a scan.
  Router* gateway_ = nullptr;
  std::map<std::uint16_t, UdpSocket> udp_sockets_;
  std::vector<net::WireImage> inbox_;
};

/// A router interface: its own address and the prefix it serves.
struct RouterInterface {
  net::IpAddr address;
  int prefix_len = 24;
};

/// A static route: traffic for `network/prefix_len` goes to `next_hop`
/// (which must be an interface address of another router, reachable via
/// one of this router's subnets).
struct StaticRoute {
  net::IpAddr network;
  int prefix_len = 24;
  net::IpAddr next_hop;
};

/// Scenario knobs from Appendix A. Each ICMP error scenario flips one.
struct RouterBehavior {
  /// Appendix A, Parameter Problem: "the router can only handle IP packets
  /// in which the type of service value equals zero".
  bool require_tos_zero = false;
  /// Appendix A, Source Quench: "one outbound buffer is full"; packets that
  /// would be forwarded out this interface index are discarded with quench.
  std::optional<std::size_t> full_outbound_interface;
};

/// The router under test. Its ICMP behaviour comes entirely from the
/// attached IcmpResponder — this is where generated code is evaluated.
class Router {
 public:
  explicit Router(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void add_interface(net::IpAddr address, int prefix_len) {
    interfaces_.push_back({address, prefix_len});
  }
  const std::vector<RouterInterface>& interfaces() const { return interfaces_; }

  void set_responder(IcmpResponder* responder) { responder_ = responder; }
  RouterBehavior& behavior() { return behavior_; }

  /// Install a static route (multi-router topologies).
  void add_route(net::IpAddr network, int prefix_len, net::IpAddr next_hop) {
    routes_.push_back({network, prefix_len, next_hop});
  }
  const std::vector<StaticRoute>& routes() const { return routes_; }

  /// True if `addr` is one of the router's own interface addresses.
  bool owns_address(net::IpAddr addr) const;

  /// Interface serving `addr`'s subnet, if any.
  std::optional<std::size_t> interface_for(net::IpAddr addr) const;

  /// Static route whose prefix covers `addr`, if any (longest prefix wins).
  const StaticRoute* route_for(net::IpAddr addr) const;

 private:
  friend class Network;
  std::string name_;
  std::vector<RouterInterface> interfaces_;
  std::vector<StaticRoute> routes_;
  IcmpResponder* responder_ = nullptr;
  RouterBehavior behavior_;
};

/// The simulated network: routers, any number of hosts, a capture log,
/// and the timestamped event queue driving delivery.
class Network {
 public:
  Network() = default;
  ~Network();

  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  Host& add_host(std::string name, net::IpAddr address, int prefix_len = 24);
  Router& add_router(std::string name);

  Host* find_host(const std::string& name);
  /// The first router (the single-router topologies' "the router").
  Router* router() { return routers_.empty() ? nullptr : routers_[0].get(); }
  Router* find_router(const std::string& name);
  /// Router with an interface on `addr`'s subnet (the first match).
  Router* router_serving(net::IpAddr addr);
  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
  const std::vector<std::unique_ptr<Router>>& routers() const { return routers_; }

  /// Configure the link serving `network/prefix_len`. Hops toward an
  /// address in that subnet are scheduled `LinkConfig::delay_ns` into the
  /// simulated future (longest configured prefix wins; unconfigured
  /// subnets are ideal wires).
  void set_link(net::IpAddr network, int prefix_len, LinkConfig config);

  /// Transmit `packet` from `host_name` (or a router's name for
  /// router-originated traffic). The bytes are interned into the run
  /// arena once at injection; the packet is then routed hop by hop until
  /// delivered, dropped, or the hop budget is exhausted; replies
  /// generated along the way are routed too, and the queue is drained to
  /// quiescence before returning. Every transmission is appended to the
  /// capture log. A `host_name` that names no host or router drops the
  /// packet: nothing is captured, counted, or queued.
  void send_from_host(const std::string& host_name,
                      std::span<const std::uint8_t> packet);

  /// Overload for callers that already hold the sending host (topology
  /// generators and the soak driver do): skips the name lookup on the
  /// injection fast path.
  void send_from_host(Host& host, std::span<const std::uint8_t> packet);

  /// Like send_from_host, but forces the first hop through the router even
  /// if the destination is on the sender's own subnet — the Appendix A
  /// Redirect scenario, where the client's routing table wrongly points at
  /// the router. An unknown `host_name` drops the packet, as above.
  void send_from_host_via_router(const std::string& host_name,
                                 std::span<const std::uint8_t> packet);

  /// Enqueue a transmission `delay_ns` into the simulated future WITHOUT
  /// draining the queue — the injection point for traffic storms and the
  /// fuzzer's delay faults (fuzz::FaultyNetwork schedules real
  /// future-time events here instead of post-hoc reordering). Call run()
  /// to deliver. An unknown `host_name` drops the packet, as above.
  void schedule_from_host(const std::string& host_name,
                          std::span<const std::uint8_t> packet,
                          std::uint64_t delay_ns, bool via_router = false);

  /// Drain every pending event in (time, seq) order; returns the number
  /// of events processed. now_ns() advances to the last event's time.
  std::size_t run();

  /// Current simulated time.
  std::uint64_t now_ns() const { return now_ns_; }

  /// Kernel events processed so far: one per transmission activation (a
  /// node putting a packet on the wire, a static-route handoff, or a
  /// forced injection). A zero-delay hop may be dispatched inline
  /// (cut-through) rather than through the queue, but it still counts as
  /// one event.
  std::size_t events_processed() const { return events_processed_; }

  const std::vector<CaptureEntry>& capture() const { return capture_; }
  /// Forget capture entries. The arena is NOT rewound (inbox/UDP/queue
  /// views may still be live); use clear_transient() to reclaim bytes.
  void clear_capture() { capture_.clear(); }

  /// Reset per-session endpoint state: capture log, host inboxes,
  /// received-UDP buffers, and — when no events are pending — the run
  /// arena all the packet views point into. Topology, routes, links,
  /// clock, and counters survive — this is what keeps a long soak's
  /// memory bounded while keeping its sessions independent.
  void clear_transient();

  /// clear_transient() calls that could NOT rewind the arena because
  /// events were still queued (the refusal path above). A growing count
  /// in a steady-state workload means packet memory is not being
  /// reclaimed between sessions — serve::StatsSnapshot surfaces the
  /// process-wide total so soak drivers can gate on it.
  std::size_t transient_clear_refusals() const {
    return transient_clear_refusals_;
  }
  static std::uint64_t total_transient_clear_refusals();

  /// Largest run-arena high-water ever observed across every Network in
  /// the process (sampled at clear_transient() and destruction). A
  /// bounded-memory workload plateaus here after warmup.
  static std::uint64_t peak_arena_high_water();

  /// The run arena backing every in-flight/captured packet image. Read
  /// access for memory accounting and the zero-copy smoke assertions.
  const util::Arena& arena() const { return arena_; }

  /// Rough accounting of the simulation's resident footprint (topology +
  /// capture + queue), for the bounded-memory soak assertions.
  std::size_t approximate_memory_bytes() const;

  /// Render the capture log as a pcap byte stream (LINKTYPE_RAW).
  std::vector<std::uint8_t> capture_to_pcap() const;

 private:
  /// Who put a packet on the wire. Exactly one pointer is set, except for
  /// lookup_node()'s "no such node" result, which sets neither; events
  /// carry this instead of re-resolving node names per hop.
  struct NodeRef {
    Host* host = nullptr;
    Router* router = nullptr;
    bool empty() const { return host == nullptr && router == nullptr; }
    const std::string& name() const {
      return host != nullptr ? host->name() : router->name();
    }
  };

  /// One scheduled hop. `packet` views the run arena (immutable once
  /// interned), so queued events and the capture log share bytes.
  struct Pending {
    enum class Kind : std::uint8_t {
      kTransmit,    // `from` put `packet` on the wire
      kRouteVia,    // `packet` was handed to router `via` (static route)
      kInjectVia,   // host injection forced through its gateway (redirect)
    };
    Kind kind = Kind::kTransmit;
    NodeRef from;
    Router* via = nullptr;
    net::WireImage packet;
    int hop_budget = 0;
  };

  /// Copy caller/responder bytes into the run arena; the returned view
  /// is the canonical in-flight image every downstream stage aliases.
  net::WireImage intern(std::span<const std::uint8_t> bytes) {
    return net::WireImage(arena_.intern(bytes));
  }

  // Arena-backed images throughout: no per-hop copies.
  void ensure_index();
  /// NodeRef{} (empty()) when no host or router has that name.
  NodeRef lookup_node(const std::string& name);
  /// Shared tail of both send_from_host overloads: intern, then
  /// transmit cut-through or queue behind pending events.
  void inject(NodeRef from, std::span<const std::uint8_t> packet);
  Router* gateway_of(const Host& host) { return host.gateway_; }
  std::uint64_t hop_delay(std::span<const std::uint8_t> packet) const;
  void schedule(Pending pending, std::uint64_t at_ns);
  void process(Pending pending);
  // `pre` is the already-parsed IP header when the caller has one (the
  // cut-through path forwards a freshly patched image plus its header
  // copy instead of re-parsing every hop).
  void ev_transmit(NodeRef from, net::WireImage packet, int hop_budget,
                   const net::Ipv4Header* pre = nullptr);
  void ev_deliver(Host& host, net::WireImage packet, int hop_budget,
                  const net::Ipv4Header& hdr);
  void ev_route(Router& r, net::WireImage packet, int hop_budget,
                const net::Ipv4Header* pre = nullptr);
  void ev_reply(NodeRef from, std::optional<std::vector<std::uint8_t>> reply,
                int hop_budget);

  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Router>> routers_;
  /// Per-run bump arena holding every packet image in flight or captured
  /// this run. Rewound by clear_transient() once the queue is drained;
  /// chunks are retained, so steady-state sessions allocate nothing.
  util::Arena arena_;
  std::vector<CaptureEntry> capture_;

  EventQueue<Pending> queue_;
  std::uint64_t now_ns_ = 0;
  std::size_t events_processed_ = 0;
  std::size_t transient_clear_refusals_ = 0;
  std::vector<std::pair<StaticRoute, LinkConfig>> links_;  // route fields reused as (subnet, prefix)

  // Hash indexes over the topology, rebuilt when it grows.
  std::unordered_map<std::string, NodeRef> node_by_name_;
  std::unordered_map<std::uint32_t, Host*> host_by_addr_;
  std::unordered_map<std::uint32_t, Router*> router_by_addr_;
  std::size_t indexed_hosts_ = 0;
  std::size_t indexed_routers_ = 0;
  std::size_t indexed_interfaces_ = 0;
};

/// Build the Appendix A topology: router "r" with 10.0.1.1/24,
/// 192.168.2.1/24, 172.64.3.1/24; "client" 10.0.1.100, "server1"
/// 192.168.2.100, "server2" 172.64.3.100.
Network make_appendix_a_network();

/// The simulated kernel's input validation for ICMP requests, read off
/// the message header (type, code) and the byte count after its 8-byte
/// header: RFC 792 gives echo/timestamp/information requests "Code 0",
/// a timestamp request must carry exactly the three-timestamp block the
/// schema declares, and an information request carries no data.
/// Malformed requests are never handed to a responder (mirroring OS ICMP
/// input checks), so reference and generated implementations always see
/// the same, parseable inputs — the fuzzer relies on this shared gate.
bool icmp_request_well_formed(net::IcmpType type, std::uint8_t code,
                              std::size_t payload_size);

}  // namespace sage::sim
