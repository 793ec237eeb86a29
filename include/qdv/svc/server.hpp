// Unix-domain-socket front end of the query service: `qdv_tool serve` hosts
// a SocketServer over one QueryService; clients (including `qdv_tool
// bombard` and the tests) speak the line protocol of svc/protocol.hpp, one
// service session per connection.
//
// Ownership: the server borrows the QueryService — the caller keeps it
// alive until stop() returns. Thread model: io::UnixServer's accept thread
// plus one thread per connection; stop() closes every socket and joins
// them all. POSIX-only (AF_UNIX), like the mmap-backed io layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "svc/query_service.hpp"

namespace qdv::svc {

class SocketServer {
 public:
  /// Binds and listens on @p socket_path (an existing socket file there is
  /// removed first); throws std::runtime_error on any socket failure.
  SocketServer(QueryService& service, std::filesystem::path socket_path);
  ~SocketServer();  // stop()s if still running
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Start the accept loop (idempotent).
  void start();
  /// Close the listener and every live connection, join all threads, and
  /// unlink the socket file (idempotent).
  void stop();

  const std::filesystem::path& socket_path() const;
  /// Connections accepted so far.
  std::uint64_t connections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Blocking line-protocol client used by bombard and the tests. All socket
/// I/O runs full-line loops (EINTR restarts, partial reads/writes resume),
/// and an optional SO_RCVTIMEO bounds every response wait.
class SocketClient {
 public:
  /// Connect to a listening SocketServer and perform the `hello v=N`
  /// version handshake; throws std::runtime_error on failure — including
  /// a protocol version mismatch, reported with the server's own message
  /// (retries connecting briefly while the server is still coming up).
  /// @p receive_timeout > 0 bounds every response wait; a stalled server
  /// then throws instead of wedging the caller forever.
  explicit SocketClient(const std::filesystem::path& socket_path,
                        std::chrono::milliseconds receive_timeout =
                            std::chrono::milliseconds{0});
  ~SocketClient();
  SocketClient(SocketClient&& other) noexcept;
  SocketClient& operator=(SocketClient&&) = delete;
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// Send one request line, wait for the one response line.
  std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the last response line
};

}  // namespace qdv::svc
