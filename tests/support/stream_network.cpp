#include "tests/support/stream_network.h"

#include <utility>

#include "util/require.h"

namespace qps::sim {

StreamNetwork::StreamNetwork(Simulator& simulator, Rng& rng)
    : simulator_(&simulator), rng_(&rng) {}

void StreamNetwork::set_server(OpenHandler on_open, DataHandler on_data,
                               CloseHandler on_close) {
  server_open_ = std::move(on_open);
  server_data_ = std::move(on_data);
  server_close_ = std::move(on_close);
}

StreamNetwork::ConnId StreamNetwork::connect(DataHandler on_data,
                                             CloseHandler on_close) {
  const ConnId conn = next_id_++;
  Conn& c = conns_[conn];
  c.client_data = std::move(on_data);
  c.client_close = std::move(on_close);
  c.to_server.faults = default_faults_;
  c.to_client.faults = default_faults_;
  const double when = stamp(c.to_server);
  simulator_->schedule_at(when, [this, conn] {
    const auto it = conns_.find(conn);
    if (it == conns_.end() || !it->second.server_alive) return;
    if (server_open_) server_open_(conn);
  });
  return conn;
}

double StreamNetwork::stamp(Direction& direction) {
  const double latency = direction.faults.latency
                             ? direction.faults.latency(*rng_)
                             : 0.001;
  double when = simulator_->now() + (latency > 0.0 ? latency : 0.0);
  if (when < direction.clock) when = direction.clock;
  direction.clock = when;
  return when;
}

void StreamNetwork::send(ConnId conn, bool to_server, std::string bytes) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || bytes.empty()) return;
  Conn& c = it->second;
  // A dead sender cannot write; a closed receiver silently swallows.
  if (to_server ? !c.client_alive : !c.server_alive) return;
  Direction& direction = to_server ? c.to_server : c.to_client;
  if (direction.faults.partitioned) {
    bytes_black_holed_ += bytes.size();
    return;
  }
  std::size_t chunk_size = direction.faults.max_chunk;
  if (chunk_size == 0) chunk_size = bytes.size();
  for (std::size_t offset = 0; offset < bytes.size(); offset += chunk_size) {
    std::string chunk = bytes.substr(offset, chunk_size);
    const double when = stamp(direction);
    simulator_->schedule_at(
        when, [this, conn, to_server, chunk = std::move(chunk)] {
          const auto conn_it = conns_.find(conn);
          if (conn_it == conns_.end()) return;
          const Conn& c2 = conn_it->second;
          if (to_server ? !c2.server_alive : !c2.client_alive) return;
          ++chunks_delivered_;
          const DataHandler& handler =
              to_server ? server_data_ : c2.client_data;
          if (handler) handler(conn, chunk);
        });
  }
}

void StreamNetwork::send_to_server(ConnId conn, std::string bytes) {
  send(conn, /*to_server=*/true, std::move(bytes));
}

void StreamNetwork::send_to_client(ConnId conn, std::string bytes) {
  send(conn, /*to_server=*/false, std::move(bytes));
}

void StreamNetwork::close(ConnId conn, bool from_server) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  bool& closer_alive = from_server ? c.server_alive : c.client_alive;
  if (!closer_alive) return;
  closer_alive = false;
  Direction& direction = from_server ? c.to_client : c.to_server;
  if (!direction.faults.partitioned) {
    // EOF rides the same FIFO clock as data, so the peer reads every byte
    // already in flight before learning the connection died.
    const double when = stamp(direction);
    simulator_->schedule_at(when, [this, conn, from_server] {
      const auto conn_it = conns_.find(conn);
      if (conn_it == conns_.end()) return;
      Conn& c2 = conn_it->second;
      bool& peer_alive = from_server ? c2.client_alive : c2.server_alive;
      if (!peer_alive) {
        maybe_erase(conn);
        return;
      }
      peer_alive = false;
      // Detach the handler before erasing: it may re-enter close().
      const CloseHandler handler =
          from_server ? c2.client_close : server_close_;
      conns_.erase(conn_it);
      if (handler) handler(conn);
    });
  }
  // A close into a partition never arrives: the peer must time out.  The
  // record dies when (and if) the peer closes its own side.
  maybe_erase(conn);
}

void StreamNetwork::maybe_erase(ConnId conn) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  if (!it->second.server_alive && !it->second.client_alive) conns_.erase(it);
}

StreamFaults& StreamNetwork::to_server(ConnId conn) {
  const auto it = conns_.find(conn);
  QPS_REQUIRE(it != conns_.end(), "unknown connection");
  return it->second.to_server.faults;
}

StreamFaults& StreamNetwork::to_client(ConnId conn) {
  const auto it = conns_.find(conn);
  QPS_REQUIRE(it != conns_.end(), "unknown connection");
  return it->second.to_client.faults;
}

}  // namespace qps::sim
