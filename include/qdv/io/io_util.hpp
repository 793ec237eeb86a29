// EINTR-retrying, short-transfer-looping wrappers around the raw POSIX I/O
// calls (DESIGN.md §15). Every pread/read/write/send/recv in the library
// goes through these — scripts/check_raw_io.sh lint-fails any new raw call
// site — so interrupted syscalls and partial transfers are handled in
// exactly one place, and the qdv::fault injector has one choke point per
// site to perturb.
//
// File helpers throw std::runtime_error on hard errors; socket helpers
// return status (peers legitimately vanish). All are thread-safe (no shared
// state beyond the fault schedule).
//
// The AF_UNIX socket layer lives here too: UnixServer (the listener, accept
// thread and per-connection threads under svc::SocketServer) and
// connect_unix (its client side). The lint also fails any raw
// socket/bind/listen/accept/connect outside this file.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>

#include "fault/fault.hpp"

namespace qdv::io {

/// pread exactly @p n bytes at @p offset, looping over short reads and
/// EINTR. Returns the bytes read — n, or less on end-of-file. Throws
/// std::runtime_error on a read error.
std::size_t pread_full(int fd, void* dst, std::size_t n, std::uint64_t offset);

/// read() the next @p n bytes, same contract as pread_full.
std::size_t read_full(int fd, void* dst, std::size_t n);

/// write exactly @p n bytes; throws std::runtime_error (including on
/// injected ENOSPC) when the file cannot absorb them.
void write_full(int fd, const void* src, std::size_t n);

/// Outcome of a socket transfer.
enum class XferResult {
  kOk,       // all n bytes moved
  kClosed,   // peer closed / connection reset
  kTimeout,  // SO_RCVTIMEO / SO_SNDTIMEO expired
};

/// send() exactly @p n bytes on a socket, looping over short sends and
/// EINTR; @p site tags the transfer for fault injection.
XferResult send_full(int fd, const void* src, std::size_t n, fault::Site site);

/// One recv() of at most @p cap bytes — line-oriented protocols read in
/// chunks and scan for the delimiter themselves. On kOk, @p got holds the
/// chunk size (> 0); kClosed covers orderly shutdown and hard errors.
XferResult recv_some(int fd, void* dst, std::size_t cap, fault::Site site,
                     std::size_t& got);

/// AF_UNIX stream listener: one accept thread plus one thread per
/// connection, each running the handler on its descriptor.
///
/// The handler must not close the descriptor. When it returns (or throws:
/// a throwing handler closes only its own connection), the server clears
/// the connection's fd under its mutex, closes it, and marks the thread
/// joinable; finished threads are reaped on the next accept. Clearing
/// before closing means stop() can never shut down a descriptor the kernel
/// has since reused. POSIX-only, like the mmap-backed file layer.
class UnixServer {
 public:
  using Handler = std::function<void(int fd)>;

  /// Removes a stale socket file at @p path, then binds and listens;
  /// throws std::runtime_error on any socket failure.
  UnixServer(std::filesystem::path path, Handler handler);
  ~UnixServer();  // stop()s if still running
  UnixServer(const UnixServer&) = delete;
  UnixServer& operator=(const UnixServer&) = delete;

  /// Start the accept loop (idempotent; a no-op once stopped).
  void start();
  /// Close the listener, shut down every live connection (which pops the
  /// handlers' blocking reads), join all threads, and unlink the socket
  /// file (idempotent).
  void stop();

  const std::filesystem::path& path() const;
  /// Connections accepted so far.
  std::uint64_t accepted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Connect to the AF_UNIX stream socket at @p path, retrying until
/// @p connect_timeout passes (the listener may still be coming up), then
/// set SO_RCVTIMEO to @p recv_timeout (0 = block forever) so a stalled peer
/// surfaces as XferResult::kTimeout. Returns the connected descriptor (the
/// caller closes it); throws std::runtime_error naming @p path otherwise.
int connect_unix(const std::filesystem::path& path,
                 std::chrono::milliseconds connect_timeout,
                 std::chrono::milliseconds recv_timeout);

}  // namespace qdv::io
