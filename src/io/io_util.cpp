#include "io/io_util.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace qdv::io {

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

// Flip one seeded-random bit in a freshly transferred span — downstream
// checksums / frame validation must catch it.
void flip_bit(void* data, std::size_t n) {
  if (n == 0) return;
  const std::uint64_t r = fault::draw();
  static_cast<unsigned char*>(data)[(r >> 3) % n] ^=
      static_cast<unsigned char>(1u << (r & 7));
}

void maybe_delay(fault::Site site) {
  if (fault::roll(site, fault::Kind::kLatency))
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 + fault::draw() % 10));
}

}  // namespace

std::size_t pread_full(int fd, void* dst, std::size_t n, std::uint64_t offset) {
  auto* out = static_cast<char*>(dst);
  std::size_t total = 0;
  while (total < n) {
    std::size_t ask = n - total;
    if (fault::enabled()) {
      maybe_delay(fault::Site::kFile);
      if (fault::roll(fault::Site::kFile, fault::Kind::kEintr)) continue;
      if (fault::roll(fault::Site::kFile, fault::Kind::kTruncate))
        return total;  // simulated premature EOF
      if (ask > 1 && fault::roll(fault::Site::kFile, fault::Kind::kShortRead))
        ask = 1 + ask / 2;
    }
    const ssize_t got =
        ::pread(fd, out + total, ask, static_cast<off_t>(offset + total));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread failed");
    }
    if (got == 0) return total;  // end of file
    if (fault::enabled() &&
        fault::roll(fault::Site::kFile, fault::Kind::kBitFlip))
      flip_bit(out + total, static_cast<std::size_t>(got));
    total += static_cast<std::size_t>(got);
  }
  return total;
}

std::size_t read_full(int fd, void* dst, std::size_t n) {
  auto* out = static_cast<char*>(dst);
  std::size_t total = 0;
  while (total < n) {
    std::size_t ask = n - total;
    if (fault::enabled()) {
      maybe_delay(fault::Site::kFile);
      if (fault::roll(fault::Site::kFile, fault::Kind::kEintr)) continue;
      if (fault::roll(fault::Site::kFile, fault::Kind::kTruncate)) return total;
      if (ask > 1 && fault::roll(fault::Site::kFile, fault::Kind::kShortRead))
        ask = 1 + ask / 2;
    }
    const ssize_t got = ::read(fd, out + total, ask);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("read failed");
    }
    if (got == 0) return total;
    if (fault::enabled() &&
        fault::roll(fault::Site::kFile, fault::Kind::kBitFlip))
      flip_bit(out + total, static_cast<std::size_t>(got));
    total += static_cast<std::size_t>(got);
  }
  return total;
}

void write_full(int fd, const void* src, std::size_t n) {
  const auto* in = static_cast<const char*>(src);
  std::size_t total = 0;
  while (total < n) {
    if (fault::enabled()) {
      maybe_delay(fault::Site::kFile);
      if (fault::roll(fault::Site::kFile, fault::Kind::kEintr)) continue;
      if (fault::roll(fault::Site::kFile, fault::Kind::kEnospc)) {
        errno = ENOSPC;
        throw_errno("write failed");
      }
    }
    const ssize_t put = ::write(fd, in + total, n - total);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed");
    }
    total += static_cast<std::size_t>(put);
  }
}

XferResult send_full(int fd, const void* src, std::size_t n,
                     fault::Site site) {
  const auto* in = static_cast<const char*>(src);
  std::size_t total = 0;
  while (total < n) {
    if (fault::enabled()) {
      maybe_delay(site);
      if (fault::roll(site, fault::Kind::kEintr)) continue;
      if (fault::roll(site, fault::Kind::kConnReset) ||
          fault::roll(site, fault::Kind::kTruncate))
        return XferResult::kClosed;
    }
    const ssize_t put = ::send(fd, in + total, n - total, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return XferResult::kTimeout;
      return XferResult::kClosed;  // EPIPE / ECONNRESET / ...
    }
    total += static_cast<std::size_t>(put);
  }
  return XferResult::kOk;
}

XferResult recv_some(int fd, void* dst, std::size_t cap, fault::Site site,
                     std::size_t& got) {
  got = 0;
  for (;;) {
    if (fault::enabled()) {
      maybe_delay(site);
      if (fault::roll(site, fault::Kind::kEintr)) continue;
      if (fault::roll(site, fault::Kind::kConnReset) ||
          fault::roll(site, fault::Kind::kTruncate))
        return XferResult::kClosed;
    }
    const ssize_t n = ::recv(fd, dst, cap, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return XferResult::kTimeout;
      return XferResult::kClosed;
    }
    if (n == 0) return XferResult::kClosed;
    if (fault::enabled() && fault::roll(site, fault::Kind::kBitFlip))
      flip_bit(dst, static_cast<std::size_t>(n));
    got = static_cast<std::size_t>(n);
    return XferResult::kOk;
  }
}

struct UnixServer::Impl {
  std::filesystem::path path;
  Handler handler;
  int listen_fd = -1;
  std::thread accept_thread;
  bool started = false;
  bool stopped = false;

  /// One live (or finished, not yet reaped) connection. `done` flips as
  /// the connection thread's last step, so reaping never blocks.
  struct Conn {
    int fd = -1;
    std::shared_ptr<std::atomic<bool>> done;
    std::thread thread;
  };
  mutable std::mutex mutex;  // guards conns / accepted
  std::vector<Conn> conns;
  std::uint64_t accepted = 0;

  void serve(int fd, const std::shared_ptr<std::atomic<bool>>& done) {
    try {
      handler(fd);
    } catch (...) {
      // A failing handler closes its own connection only.
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (Conn& c : conns)
        if (c.done == done) c.fd = -1;
    }
    ::close(fd);
    done->store(true, std::memory_order_release);
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
      conn.thread = std::thread([this, fd, done = conn.done] { serve(fd, done); });
      conns.push_back(std::move(conn));
    }
  }
};

UnixServer::UnixServer(std::filesystem::path path, Handler handler)
    : impl_(std::make_unique<Impl>()) {
  impl_->path = std::move(path);
  impl_->handler = std::move(handler);
  const sockaddr_un addr = make_address(impl_->path);
  std::filesystem::remove(impl_->path);
  impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) throw_errno("socket");
  if (::bind(impl_->listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(impl_->listen_fd, 64) != 0) {
    const int err = errno;
    ::close(impl_->listen_fd);
    errno = err;
    throw_errno("bind/listen " + impl_->path.string());
  }
}

UnixServer::~UnixServer() { stop(); }

void UnixServer::start() {
  if (impl_->started || impl_->stopped) return;  // a stopped server stays down
  impl_->started = true;
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

void UnixServer::stop() {
  if (impl_->stopped) return;
  impl_->stopped = true;
  // Shutting the listener pops accept() with an error; shutting the
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
  std::error_code ec;
  std::filesystem::remove(impl_->path, ec);
}

const std::filesystem::path& UnixServer::path() const { return impl_->path; }

std::uint64_t UnixServer::accepted() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->accepted;
}

int connect_unix(const std::filesystem::path& path,
                 std::chrono::milliseconds connect_timeout,
                 std::chrono::milliseconds recv_timeout) {
  const sockaddr_un addr = make_address(path);
  const auto deadline = std::chrono::steady_clock::now() + connect_timeout;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      if (recv_timeout.count() > 0) {
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(recv_timeout.count() / 1000);
        tv.tv_usec =
            static_cast<suseconds_t>((recv_timeout.count() % 1000) * 1000);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      }
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      errno = err;
      throw_errno("cannot connect to " + path.string());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace qdv::io
