#include "svc/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "io/io_util.hpp"
#include "svc/protocol.hpp"

namespace qdv::svc {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_address(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string text = path.string();
  if (text.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + text);
  std::memcpy(addr.sun_path, text.c_str(), text.size() + 1);
  return addr;
}

/// Write all of @p line plus a newline; false once the peer is gone.
bool write_line(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  return io::send_full(fd, out.data(), out.size(), fault::Site::kSvc) ==
         io::XferResult::kOk;
}

/// Longest request line the server buffers before giving up on the
/// connection: one client must not be able to grow server memory without
/// bound by never sending a newline.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Read up to the next newline (leftover bytes stay in @p buffer); false on
/// EOF / error with nothing buffered. On a receive timeout errno stays
/// EAGAIN for the caller to inspect; once more than @p max_bytes arrive
/// without a newline, errno is EMSGSIZE.
bool read_line(int fd, std::string& buffer, std::string& line,
               std::size_t max_bytes = std::string::npos) {
  std::size_t scanned = 0;  // bytes already known to hold no newline
  for (;;) {
    const std::size_t pos = buffer.find('\n', scanned);
    if (pos != std::string::npos) {
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    scanned = buffer.size();
    if (scanned > max_bytes) {
      errno = EMSGSIZE;
      return false;
    }
    char chunk[4096];
    std::size_t got = 0;
    switch (io::recv_some(fd, chunk, sizeof chunk, fault::Site::kSvc, got)) {
      case io::XferResult::kOk:
        buffer.append(chunk, got);
        break;
      case io::XferResult::kTimeout:
        errno = EAGAIN;
        return false;
      case io::XferResult::kClosed:
        errno = 0;
        return false;
    }
  }
}

}  // namespace

struct SocketServer::Impl {
  QueryService& service;
  std::filesystem::path path;
  int listen_fd = -1;
  std::thread accept_thread;
  bool started = false;
  bool stopped = false;

  /// One live (or recently finished, not yet reaped) connection. `fd` is
  /// reset to -1 under the mutex before the handler closes it, so stop()
  /// can never shut down a kernel-reused descriptor; `done` flips as the
  /// handler's last step, making the thread joinable without blocking.
  struct Conn {
    int fd = -1;
    std::shared_ptr<std::atomic<bool>> done;
    std::thread thread;
  };

  std::mutex mutex;  // guards conns / counters
  std::vector<Conn> conns;
  std::uint64_t accepted = 0;

  explicit Impl(QueryService& s, std::filesystem::path p)
      : service(s), path(std::move(p)) {}

  void serve_connection(int fd, const std::shared_ptr<std::atomic<bool>>& done) {
    const QueryService::SessionId session = service.open_session("socket");
    try {
      handle_lines(fd, session);
    } catch (const std::exception&) {
      // A handler-side failure closes this connection only; the session
      // teardown below still runs, so a dying socket can never leak its
      // open_sessions slot or in-flight budget (it is released exactly
      // once, on this path or the normal one).
    }
    service.close_session(session);
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (Conn& c : conns)
        if (c.done == done) c.fd = -1;
    }
    ::close(fd);
    done->store(true, std::memory_order_release);
  }

  void handle_lines(int fd, QueryService::SessionId session) {
    std::string buffer;
    std::string line;
    bool greeted = false;
    while (read_line(fd, buffer, line, kMaxRequestLineBytes)) {
      if (line.empty()) continue;
      WireRequest wire;
      std::string error;
      std::string response;
      const bool parsed = parse_request_line(line, wire, error);
      // Version gate: the first line must be a matching `hello` greeting,
      // so a stale client fails loudly and immediately instead of
      // misparsing responses mid-session.
      if (!greeted) {
        if (parsed && wire.op == WireRequest::Op::kHello &&
            wire.hello_version == kProtocolVersion) {
          greeted = true;
          write_line(fd, "ok qdv v=" + std::to_string(kProtocolVersion));
          continue;
        }
        if (parsed && wire.op == WireRequest::Op::kHello) {
          write_line(fd, "err protocol version mismatch: server speaks v" +
                             std::to_string(kProtocolVersion) +
                             ", client greeted with v" +
                             std::to_string(wire.hello_version) +
                             " (upgrade the older side)");
        } else {
          write_line(fd,
                     "err protocol version mismatch: expected 'hello v=" +
                         std::to_string(kProtocolVersion) +
                         "' greeting before '" + line +
                         "' (stale client, or hand-driven session missing "
                         "the greeting)");
        }
        return;
      }
      if (!parsed) {
        response = "err " + error;
      } else if (wire.op == WireRequest::Op::kHello) {
        response = "ok qdv v=" + std::to_string(kProtocolVersion);
      } else if (wire.op == WireRequest::Op::kPing) {
        response = "ok pong";
      } else if (wire.op == WireRequest::Op::kQuit) {
        write_line(fd, "ok bye");
        return;
      } else if (wire.op == WireRequest::Op::kStats) {
        response = format_stats_line(service.stats());
      } else if (wire.op == WireRequest::Op::kBrush) {
        BrushOutcome outcome;
        switch (wire.brush_action) {
          case WireRequest::BrushAction::kCreate:
            outcome = service.brush_create(session, wire.brush_name,
                                           wire.request.query);
            break;
          case WireRequest::BrushAction::kRefine:
            outcome = service.brush_refine(session, wire.brush_name,
                                           wire.request.query);
            break;
          case WireRequest::BrushAction::kInvert:
            outcome = service.brush_invert(session, wire.brush_name);
            break;
          case WireRequest::BrushAction::kCombine:
            outcome = service.brush_combine(session, wire.brush_name,
                                            wire.brush_with,
                                            wire.brush_combine_op);
            break;
          case WireRequest::BrushAction::kDrop:
            outcome = service.brush_drop(session, wire.brush_name);
            break;
        }
        response = format_brush_response_line(outcome);
      } else {
        const ResultPtr result = service.execute(session, wire.request);
        response = format_response_line(*result, wire.ids_limit);
      }
      if (!write_line(fd, response)) return;
    }
    if (errno == EMSGSIZE)
      write_line(fd, "err line too long (max " +
                         std::to_string(kMaxRequestLineBytes) + " bytes)");
  }

  /// Join and drop finished connections (called on each accept, so a
  /// long-running server does not accrete one zombie thread per client).
  void reap_locked() {
    for (std::size_t i = 0; i < conns.size();) {
      if (conns[i].done->load(std::memory_order_acquire)) {
        conns[i].thread.join();
        conns[i] = std::move(conns.back());
        conns.pop_back();
      } else {
        ++i;
      }
    }
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed by stop()
      }
      std::lock_guard<std::mutex> lock(mutex);
      ++accepted;
      reap_locked();
      Conn conn;
      conn.fd = fd;
      conn.done = std::make_shared<std::atomic<bool>>(false);
      conn.thread = std::thread(
          [this, fd, done = conn.done] { serve_connection(fd, done); });
      conns.push_back(std::move(conn));
    }
  }
};

SocketServer::SocketServer(QueryService& service, std::filesystem::path socket_path)
    : impl_(std::make_unique<Impl>(service, std::move(socket_path))) {
  std::filesystem::remove(impl_->path);
  impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) throw_errno("socket");
  const sockaddr_un addr = make_address(impl_->path);
  if (::bind(impl_->listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    ::close(impl_->listen_fd);
    throw_errno("bind " + impl_->path.string());
  }
  if (::listen(impl_->listen_fd, 64) != 0) {
    ::close(impl_->listen_fd);
    throw_errno("listen " + impl_->path.string());
  }
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  if (impl_->started) return;
  impl_->started = true;
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

void SocketServer::stop() {
  if (impl_->stopped) return;
  impl_->stopped = true;
  // Closing the listener pops accept() with an error; shutting the
  // connection sockets pops their reads. Threads then exit on their own.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  ::close(impl_->listen_fd);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  std::vector<Impl::Conn> conns;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const Impl::Conn& c : impl_->conns)
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    conns.swap(impl_->conns);
  }
  for (Impl::Conn& c : conns) c.thread.join();
  std::filesystem::remove(impl_->path);
}

const std::filesystem::path& SocketServer::socket_path() const {
  return impl_->path;
}

std::uint64_t SocketServer::connections() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->accepted;
}

SocketClient::SocketClient(const std::filesystem::path& socket_path,
                           std::chrono::milliseconds receive_timeout) {
  const sockaddr_un addr = make_address(socket_path);
  // The server may still be between bind() and listen(); retry briefly.
  for (int attempt = 0; fd_ < 0 && attempt < 50; ++attempt) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (fd_ < 0) throw std::runtime_error("cannot connect to " + socket_path.string());
  if (receive_timeout.count() > 0) {
    // SO_RCVTIMEO: a stalled or wedged server surfaces as a clear timeout
    // error on this client instead of blocking it forever.
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(receive_timeout.count() / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((receive_timeout.count() % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  // Version handshake: fail construction with the server's own message on
  // a mismatch. The destructor never runs for a partially constructed
  // object, so a throwing handshake must close the descriptor here.
  try {
    const std::string reply =
        request("hello v=" + std::to_string(kProtocolVersion));
    std::string body;
    if (!parse_response_line(reply, body))
      throw std::runtime_error("server rejected handshake: " + body);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

SocketClient::SocketClient(SocketClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

std::string SocketClient::request(const std::string& line) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  if (!write_line(fd_, line)) throw std::runtime_error("connection lost (send)");
  std::string response;
  if (!read_line(fd_, buffer_, response)) {
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw std::runtime_error("receive timed out (server stalled?)");
    throw std::runtime_error("connection lost (recv)");
  }
  return response;
}

}  // namespace qdv::svc
