// Thin RAII wrappers over POSIX TCP sockets.
//
// Just enough surface for the job-server driver and the socket worker:
// a listener that can bind port 0 and report the kernel-chosen port
// (parallel CI jobs never race for a fixed port), a stream with
// whole-buffer sends and EINTR-retried reads, and nothing else.  Errors
// are values, not exceptions: an invalid stream/listener or a false
// send_all is a peer to drop or a connect to retry, exactly like the engine
// layer treats malformed frames.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qps::net {

class TcpStream {
 public:
  TcpStream() = default;
  /// Adopts an already-connected fd (e.g. from TcpListener::accept).
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream() { close(); }
  TcpStream(TcpStream&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port (numeric or resolvable name); invalid() on
  /// failure.
  static TcpStream connect(const std::string& host, std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes the whole buffer (EINTR retried, SIGPIPE suppressed); false on
  /// any other error -- the peer is gone.
  bool send_all(std::string_view bytes);

  /// Reads up to `size` bytes; > 0 bytes read, 0 on orderly EOF, -1 on
  /// error (EINTR retried internally).
  long read_some(char* data, std::size_t size);

  void close();

 private:
  int fd_ = -1;
};

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { close(); }
  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
    other.port_ = 0;
  }
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on `host` (default loopback); `port` 0 asks the
  /// kernel to choose -- read the result back from port().  Invalid() on
  /// failure.
  static TcpListener bind(std::uint16_t port,
                          const std::string& host = "127.0.0.1");

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The actual bound port (kernel-chosen when bind was called with 0).
  std::uint16_t port() const { return port_; }

  /// Accepts one pending connection; invalid stream on failure.
  TcpStream accept();

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace qps::net
