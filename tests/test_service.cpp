// svc::QueryService functional suite: request kinds against direct
// Selection answers, deterministic in-flight coalescing and result-cache
// reuse, priority and per-client fairness dispatch order (observed through
// Result::sequence while the pool is gated), session byte budgets, the
// line protocol round-trip, and the unix-socket server end-to-end (also
// under injected svc-site socket faults).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/selection.hpp"
#include "fault/fault.hpp"
#include "fuzz_common.hpp"
#include "io/io_util.hpp"
#include "sim/wakefield.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

const std::filesystem::path& dataset_dir() {
  static const std::filesystem::path dir = [] {
    const std::filesystem::path d = qdv::test::scratch_dir("service");
    sim::WakefieldConfig cfg = sim::WakefieldConfig::preset_2d(300, /*seed=*/21);
    cfg.num_timesteps = 8;
    io::IndexConfig index_config;
    index_config.nbins = 64;
    CHECK(sim::generate_dataset(cfg, d, index_config) > 0);
    return d;
  }();
  return dir;
}

svc::Request count_request(const std::string& query, std::size_t t,
                           svc::Priority pri = svc::Priority::kNormal) {
  svc::Request r;
  r.kind = svc::RequestKind::kCount;
  r.query = query;
  r.timestep = t;
  r.priority = pri;
  return r;
}

void test_request_kinds_match_selection() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  svc::QueryService service{core::Engine::open(dataset_dir())};
  const auto session = service.open_session("kinds");
  const std::string query = "px > 1e9 && y > 0";
  const std::size_t t = 5;
  const core::Selection sel = engine.select(query);

  svc::Request r = count_request(query, t);
  CHECK_EQ(service.execute(session, r)->count, sel.count(t));

  r.kind = svc::RequestKind::kIds;
  CHECK(service.execute(session, r)->ids == sel.ids(t));

  r.kind = svc::RequestKind::kHistogram1D;
  r.var_x = "px";
  r.nxbins = 32;
  const svc::ResultPtr h1 = service.execute(session, r);
  CHECK(h1->hist1d.counts == sel.histogram1d(t, "px", 32).counts);

  r.kind = svc::RequestKind::kHistogram2D;
  r.var_y = "x";
  r.nybins = 16;
  const svc::ResultPtr h2 = service.execute(session, r);
  CHECK(h2->hist2d.counts == sel.histogram2d(t, "px", "x", 32, 16).counts);

  r.kind = svc::RequestKind::kSummary;
  const svc::ResultPtr sm = service.execute(session, r);
  CHECK_EQ(sm->summary.count, sel.summary(t, "px").count);
  CHECK_EQ(sm->summary.mean, sel.summary(t, "px").mean);

  // A brush holding the same predicate answers every kind through the
  // same switch: the same answer and payload, exact for its first epoch.
  CHECK_EQ(service.brush_create(session, "same", query).status,
           svc::Status::kOk);
  for (const svc::RequestKind kind :
       {svc::RequestKind::kCount, svc::RequestKind::kIds,
        svc::RequestKind::kHistogram1D, svc::RequestKind::kHistogram2D,
        svc::RequestKind::kSummary}) {
    r.kind = kind;
    r.query = query;
    r.brush.clear();
    const svc::ResultPtr plain = service.execute(session, r);
    r.query.clear();
    r.brush = "same";
    const svc::ResultPtr brushed = service.execute(session, r);
    CHECK_EQ(brushed->status, svc::Status::kOk);
    CHECK_EQ(brushed->brush_epoch, 1u);
    CHECK_EQ(brushed->payload_bytes, plain->payload_bytes);
    CHECK(brushed->payload_bytes > 0);
    CHECK_EQ(brushed->count, plain->count);
    CHECK(brushed->ids == plain->ids);
    CHECK(brushed->hist1d.counts == plain->hist1d.counts);
    CHECK(brushed->hist2d.counts == plain->hist2d.counts);
    CHECK_EQ(brushed->summary.mean, plain->summary.mean);
    // On the wire, the brush line is the plain one plus its epoch.
    const std::string plain_line = svc::format_response_line(*plain, 16);
    const std::size_t tail = plain_line.find(" src=");
    CHECK_EQ(svc::format_response_line(*brushed, 16).substr(0, tail + 9),
             plain_line.substr(0, tail) + " epoch=1 ");
  }

  // Errors surface as kError results, not exceptions.
  CHECK_EQ(service.execute(session, count_request("px >", 0))->status,
           svc::Status::kError);
  CHECK_EQ(service.execute(session, count_request("px > 0", 999))->status,
           svc::Status::kError);
  CHECK_EQ(service.execute(77777, count_request("px > 0", 0))->status,
           svc::Status::kError);
  const svc::ServiceStats stats = service.stats();
  CHECK_EQ(stats.failed, 3u);
  CHECK(stats.latency_samples > 0);
}

void test_result_cache_and_semantic_coalescing() {
  svc::QueryService service{core::Engine::open(dataset_dir())};
  const auto session = service.open_session("cache");
  const svc::ResultPtr first =
      service.execute(session, count_request("px > 1e9 && y > 0", 3));
  CHECK_EQ(first->served, svc::Served::kExecuted);
  const svc::ResultPtr again =
      service.execute(session, count_request("px > 1e9 && y > 0", 3));
  CHECK_EQ(again->served, svc::Served::kCached);
  CHECK_EQ(again->count, first->count);
  // The cache key is the *canonical* plan key: a semantically identical
  // spelling hits the same entry.
  const svc::ResultPtr swapped =
      service.execute(session, count_request("y > 0 && px > 1e9", 3));
  CHECK_EQ(swapped->served, svc::Served::kCached);
  CHECK_EQ(swapped->count, first->count);
  const svc::ServiceStats stats = service.stats();
  CHECK_EQ(stats.executed, 1u);
  CHECK_EQ(stats.result_cache_hits, 2u);
}

void test_inflight_coalescing_single_flight() {
  svc::ServiceConfig config;
  config.cache_results = false;  // isolate in-flight attachment
  config.max_concurrency = 1;
  svc::QueryService service{core::Engine::open(dataset_dir()), config};
  const auto session = service.open_session("coalesce");

  std::vector<svc::ResultFuture> futures;
  {
    test::PoolGate gate;
    // Leader + four duplicates queue while the pool is gated: the
    // duplicates must attach to the leader's flight, not enqueue.
    for (int i = 0; i < 5; ++i)
      futures.push_back(service.submit(session, count_request("px > 2e9", 2)));
    const svc::ServiceStats mid = service.stats();
    CHECK_EQ(mid.queue_depth, 1u);
    CHECK_EQ(mid.coalesce_hits, 4u);
    gate.release();
  }
  service.drain();
  const svc::ResultPtr leader = futures.front().get();
  for (auto& f : futures) {
    CHECK(f.get() == leader);  // one shared Result object
    CHECK_EQ(f.get()->status, svc::Status::kOk);
  }
  const svc::ServiceStats stats = service.stats();
  CHECK_EQ(stats.executed, 1u);
  CHECK_EQ(stats.completed, 5u);
  CHECK(stats.coalesce_rate() > 0.4);
}

void test_priority_and_fairness_order() {
  svc::ServiceConfig config;
  config.cache_results = false;
  config.max_concurrency = 1;
  svc::QueryService service{core::Engine::open(dataset_dir()), config};
  const auto flooder = service.open_session("flooder");
  const auto polite = service.open_session("polite");

  std::vector<svc::ResultFuture> batch;
  svc::ResultFuture interactive;
  svc::ResultFuture polite_one;
  {
    test::PoolGate gate;
    // The flooder queues four batch requests, then "polite" one batch
    // request, then the flooder one interactive request.
    for (int i = 0; i < 4; ++i)
      batch.push_back(service.submit(
          flooder, count_request("px > " + std::to_string(3 + i) + "e9", 1,
                                 svc::Priority::kBatch)));
    polite_one = service.submit(
        polite, count_request("y > 0", 1, svc::Priority::kBatch));
    interactive = service.submit(
        flooder, count_request("x > 0", 1, svc::Priority::kInteractive));
    gate.release();
  }
  service.drain();
  // Interactive beats every queued batch request regardless of order.
  CHECK_EQ(interactive.get()->sequence, 1u);
  // Within the batch class, the deficit scheduler alternates sessions: the
  // flooder executes one, then polite (weight 0 vs 2) runs before the
  // flooder's remaining three.
  CHECK(polite_one.get()->sequence <= 3u);
  for (auto& f : batch) CHECK(f.get()->status == svc::Status::kOk);
}

void test_session_byte_budget() {
  svc::ServiceConfig config;
  config.cache_results = false;
  config.max_concurrency = 1;
  svc::QueryService service{core::Engine::open(dataset_dir()), config};
  // 100-byte in-flight budget: one count fits (64), ids of a whole
  // timestep never does, and a second concurrent count is over budget.
  const auto tight = service.open_session("tight", 100);

  svc::Request ids = count_request("px > 0", 0);
  ids.kind = svc::RequestKind::kIds;
  CHECK_EQ(service.execute(tight, ids)->status, svc::Status::kRejectedBudget);

  {
    test::PoolGate gate;
    const svc::ResultFuture a = service.submit(tight, count_request("px > 1e9", 0));
    const svc::ResultFuture b = service.submit(tight, count_request("px > 2e9", 0));
    CHECK_EQ(b.get()->status, svc::Status::kRejectedBudget);
    gate.release();
    service.drain();
    CHECK_EQ(a.get()->status, svc::Status::kOk);
  }
  // Budget released once the flight drained: the same request is admitted.
  CHECK_EQ(service.execute(tight, count_request("px > 3e9", 0))->status,
           svc::Status::kOk);
  const svc::ServiceStats stats = service.stats();
  CHECK_EQ(stats.rejected_budget, 2u);

  // Queue cap: with a gated pool and max_queue 2, the third distinct
  // request bounces.
  svc::ServiceConfig tiny;
  tiny.cache_results = false;
  tiny.max_queue = 2;
  svc::QueryService small{core::Engine::open(dataset_dir()), tiny};
  const auto session = small.open_session("q");
  {
    test::PoolGate gate;
    (void)small.submit(session, count_request("px > 1e9", 0));
    (void)small.submit(session, count_request("px > 2e9", 0));
    const svc::ResultFuture rejected =
        small.submit(session, count_request("px > 3e9", 0));
    CHECK_EQ(rejected.get()->status, svc::Status::kRejectedQueue);
    gate.release();
  }
  small.drain();
}

void test_protocol_round_trip() {
  const char* lines[] = {
      "hello v=3",
      "count t=3 q=px > 1e9 && y > 0",
      "ids t=0 limit=5 q=px > 2e9",
      "hist1 t=2 x=px bins=32 q=y > 0",
      "hist2 t=1 x=px y=x bins=32 ybins=16 adaptive=1 pri=0 q=px > 1e9",
      "sum t=4 x=px",
      "zoom1 t=0 x=px bins=32 vlo=-1.5 vhi=2.25 q=y > 0",
      "zoom2 t=0 x=x y=px bins=32 ybins=16 vlo=0.125 vhi=0.5 ylo=-2 yhi=2 exact=1",
      "count t=0",
      "brush create name=sel q=px > 1e9 && y > 0",
      "brush refine name=sel q=x > 0",
      "brush invert name=sel",
      "brush combine name=sel with=other op=andnot",
      "brush drop name=sel",
      "count t=2 brush=sel",
      "hist1 t=1 x=px bins=16 brush=sel",
      "stats",
      "ping",
      "quit",
  };
  for (const char* line : lines) {
    svc::WireRequest wire;
    std::string error;
    CHECK(svc::parse_request_line(line, wire, error));
    // format -> parse -> format is a fixed point.
    const std::string formatted = svc::format_request_line(wire);
    svc::WireRequest reparsed;
    CHECK(svc::parse_request_line(formatted, reparsed, error));
    CHECK_EQ(svc::format_request_line(reparsed), formatted);
  }
  // A 17-digit viewport survives format -> parse bit for bit.
  svc::WireRequest wire;
  std::string error;
  CHECK(svc::parse_request_line("zoom1 t=0 x=px vlo=0.30000000000000004 vhi=1",
                                wire, error));
  CHECK(wire.request.view_lo_x == 0.1 + 0.2);
  svc::WireRequest back;
  CHECK(svc::parse_request_line(svc::format_request_line(wire), back, error));
  CHECK(back.request.view_lo_x == 0.1 + 0.2);
  CHECK(!svc::parse_request_line("count t=x", wire, error));
  CHECK(!svc::parse_request_line("frobnicate t=1", wire, error));
  CHECK(!svc::parse_request_line("", wire, error));
  CHECK(!svc::parse_request_line("count bogus", wire, error));

  // hello parses its version and rejects malformed greetings.
  CHECK(svc::parse_request_line("hello v=7", wire, error));
  CHECK(wire.op == svc::WireRequest::Op::kHello);
  CHECK_EQ(wire.hello_version, 7u);
  CHECK(!svc::parse_request_line("hello", wire, error));
  CHECK(!svc::parse_request_line("hello v=x", wire, error));
  CHECK(!svc::parse_request_line("hello bogus=1", wire, error));
  // Versions past UINT_MAX are bad options, not wrapped into v=5 or v=0.
  CHECK(!svc::parse_request_line("hello v=4294967301", wire, error));
  CHECK(error.find("bad hello option") != std::string::npos);
  CHECK(!svc::parse_request_line("hello v=4294967296", wire, error));
  CHECK(error.find("bad hello option") != std::string::npos);
}

/// The strict numeric field parsers: the whole token must parse. Every
/// fixture here was accepted by the lax strtoull/strtod wire layer the v5
/// sweep replaced (trailing garbage silently truncated, overflow clamped,
/// non-finite doubles admitted into viewport math).
void test_strict_numeric_field_parsing() {
  std::size_t n = 0;
  CHECK(svc::parse_size("10", n));
  CHECK_EQ(n, 10u);
  CHECK(svc::parse_size("0", n));
  CHECK(!svc::parse_size("5junk", n));
  CHECK(!svc::parse_size("", n));
  CHECK(!svc::parse_size("-1", n));
  CHECK(!svc::parse_size("1e3", n));
  CHECK(!svc::parse_size(" 7", n));
  CHECK(!svc::parse_size("7 ", n));
  CHECK(!svc::parse_size("0x10", n));
  CHECK(!svc::parse_size("99999999999999999999999", n));  // overflow

  double d = 0.0;
  CHECK(svc::parse_double("3.25", d));
  CHECK_EQ(d, 3.25);
  CHECK(svc::parse_double("-2e4", d));
  CHECK(svc::parse_double("0", d));
  CHECK(!svc::parse_double("1.5x", d));
  CHECK(!svc::parse_double("", d));
  CHECK(!svc::parse_double("inf", d));
  CHECK(!svc::parse_double("-inf", d));
  CHECK(!svc::parse_double("nan", d));
  CHECK(!svc::parse_double("1e999", d));  // overflows to +inf

  // The same strictness surfaces through whole request lines.
  svc::WireRequest wire;
  std::string error;
  CHECK(!svc::parse_request_line("count t=5junk q=px > 0", wire, error));
  CHECK(!svc::parse_request_line("count t=99999999999999999999999", wire, error));
  CHECK(!svc::parse_request_line("hist1 t=0 x=px bins=1e3 q=y > 0", wire, error));
  CHECK(!svc::parse_request_line("ids t=0 limit=-4 q=y > 0", wire, error));
  CHECK(!svc::parse_request_line("zoom1 t=0 x=px bins=8 vlo=inf vhi=1", wire, error));
  CHECK(!svc::parse_request_line("zoom1 t=0 x=px bins=8 vlo=nan vhi=1", wire, error));
  CHECK(!svc::parse_request_line("hist2 t=0 x=px y=x bins=8 ybins=8junk q=y > 0",
                                 wire, error));
  CHECK(!svc::parse_request_line("count t=1 deadline=50ms", wire, error));
  CHECK(!svc::parse_request_line("count t=1 pri=9", wire, error));

  // Malformed brush lines reject with typed parse errors.
  CHECK(!svc::parse_request_line("brush", wire, error));
  CHECK(!svc::parse_request_line("brush frobnicate name=b", wire, error));
  CHECK(!svc::parse_request_line("brush create q=px > 0", wire, error));
  CHECK(!svc::parse_request_line("brush create name=b", wire, error));
  CHECK(!svc::parse_request_line("brush invert name=b q=px > 0", wire, error));
  CHECK(!svc::parse_request_line("brush combine name=b with=c op=xor", wire, error));
  CHECK(!svc::parse_request_line("brush combine name=b op=and", wire, error));
  CHECK(!svc::parse_request_line("brush drop name=b with=c", wire, error));
}

/// Plain AF_UNIX connection to @p path (retrying while the server binds),
/// for legs that must speak raw bytes instead of SocketClient lines.
int connect_raw(const std::filesystem::path& path) {
  return io::connect_unix(path, std::chrono::seconds(1),
                          std::chrono::milliseconds{0});
}

/// A hand-driven socket session (no SocketClient, so no automatic
/// handshake): the server must reject a wrong-version hello and a missing
/// greeting with explicit `err protocol version mismatch` lines, while a
/// well-greeted session proceeds normally.
void test_protocol_version_handshake() {
  svc::QueryService service{core::Engine::open(dataset_dir())};
  svc::SocketServer server(
      service, qdv::test::scratch_dir("service_hello") / "qdv.sock");
  server.start();

  const auto raw_session = [&](const std::string& first_line) {
    const int fd = connect_raw(server.socket_path());
    const std::string out = first_line + "\n";
    CHECK(::send(fd, out.data(), out.size(), 0) ==
          static_cast<ssize_t>(out.size()));
    std::string reply;
    char ch = 0;
    while (reply.find('\n') == std::string::npos &&
           ::recv(fd, &ch, 1, 0) == 1)
      reply.push_back(ch);
    ::close(fd);
    return reply;
  };

  // Stale client: wrong version in the greeting.
  const std::string stale = raw_session("hello v=1");
  CHECK(stale.find("err protocol version mismatch") == 0u);
  CHECK(stale.find("v1") != std::string::npos);
  CHECK(stale.find("v" + std::to_string(svc::kProtocolVersion)) !=
        std::string::npos);

  // Pre-versioning client: first line is not a greeting at all.
  const std::string ungreeted = raw_session("ping");
  CHECK(ungreeted.find("err protocol version mismatch") == 0u);
  CHECK(ungreeted.find("hello v=" + std::to_string(svc::kProtocolVersion)) !=
        std::string::npos);

  // Matching greeting: answered ok, and the session is fully usable —
  // including a redundant mid-session hello.
  const std::string greeted = raw_session("hello v=" +
                                          std::to_string(svc::kProtocolVersion));
  CHECK_EQ(greeted, "ok qdv v=" + std::to_string(svc::kProtocolVersion) + "\n");
  svc::SocketClient client(server.socket_path());  // auto-handshake
  CHECK_EQ(client.request("ping"), "ok pong");
  CHECK_EQ(client.request("hello v=" + std::to_string(svc::kProtocolVersion)),
           "ok qdv v=" + std::to_string(svc::kProtocolVersion));
  server.stop();
}

/// A request line that never ends must not grow server memory without
/// bound: past 1 MiB with no newline the server answers `err line too long`
/// and closes that connection, and keeps serving new clients.
void test_request_line_cap() {
  svc::QueryService service{core::Engine::open(dataset_dir())};
  svc::SocketServer server(
      service, qdv::test::scratch_dir("service_line_cap") / "qdv.sock");
  server.start();

  const int fd = connect_raw(server.socket_path());
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  std::string out = "hello v=" + std::to_string(svc::kProtocolVersion) + "\n";
  out.append(std::size_t{2} << 20, 'x');  // 2 MiB, no newline
  // The server stops reading past its cap, so the tail of this send fails
  // once it closes the connection; that is expected.
  for (std::size_t sent = 0; sent < out.size();) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    reply.append(buf, static_cast<std::size_t>(n));
  // Closed, not timed out: EOF, or a reset because the server dropped the
  // bytes it never read.
  CHECK(n == 0 || errno == ECONNRESET);
  ::close(fd);
  CHECK_EQ(reply, "ok qdv v=" + std::to_string(svc::kProtocolVersion) +
                      "\nerr line too long (max 1048576 bytes)\n");

  svc::SocketClient client(server.socket_path());
  CHECK_EQ(client.request("ping"), "ok pong");
  server.stop();
}

/// One wire session against a fresh server under @p scratch: every reply
/// parses (or fails) as it should and carries the engine's own count.
void drive_socket_session(const std::string& scratch) {
  const core::Engine engine = core::Engine::open(dataset_dir());
  svc::QueryService service{core::Engine::open(dataset_dir())};
  svc::SocketServer server(service,
                           qdv::test::scratch_dir(scratch) / "qdv.sock");
  server.start();

  svc::SocketClient client(server.socket_path());
  CHECK_EQ(client.request("ping"), "ok pong");

  const core::Selection sel = engine.select("px > 1e9");
  std::string body;
  CHECK(svc::parse_response_line(
      client.request("count t=2 q=px > 1e9"), body));
  CHECK_EQ(body.find("count=" + std::to_string(sel.count(2))), 0u);

  CHECK(svc::parse_response_line(client.request("sum t=2 x=px q=px > 1e9"), body));
  CHECK(body.find("mean=") != std::string::npos);

  CHECK(!svc::parse_response_line(client.request("count t=2 q=px >"), body));
  CHECK(!svc::parse_response_line(client.request("bogus"), body));

  // A second concurrent connection gets its own session.
  std::thread other([&] {
    svc::SocketClient c2(server.socket_path());
    std::string b;
    CHECK(svc::parse_response_line(c2.request("ids t=2 limit=3 q=px > 1e9"), b));
    CHECK(b.find("ids=") != std::string::npos);
    CHECK(svc::parse_response_line(c2.request("stats"), b));
    CHECK(b.find("submitted=") != std::string::npos);
  });
  other.join();
  CHECK_EQ(client.request("quit"), "ok bye");
  server.stop();
  CHECK(server.connections() >= 2);
  CHECK(!std::filesystem::exists(server.socket_path()));
}

void test_socket_server_end_to_end() { drive_socket_session("service_sock"); }

/// The same session with the svc fault site firing EINTR and latency on
/// both ends of the socket: the transfer loops retry and wait, so no reply
/// changes.
void test_socket_server_under_svc_faults() {
  std::string error;
  CHECK(fault::configure("seed:29,spec:svc.eintr@0.2,spec:svc.delay@0.01",
                         &error));
  drive_socket_session("service_sock_faults");
  CHECK(fault::injected(fault::Site::kSvc, fault::Kind::kEintr) > 0);
  fault::reset();
}

/// Brush verbs end-to-end over the wire: create/refine/invert/combine/drop
/// round-trip with epoch-carrying responses, answers match the equivalent
/// Selection, and every error class comes back as a typed `err` that
/// leaves the connection usable.
void test_brush_wire_session() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  svc::ServiceConfig config;
  config.max_brushes_per_session = 2;
  svc::QueryService service{core::Engine::open(dataset_dir()), config};
  svc::SocketServer server(
      service, qdv::test::scratch_dir("service_brush") / "qdv.sock");
  server.start();
  svc::SocketClient client(server.socket_path());

  std::string body;
  CHECK(svc::parse_response_line(
      client.request("brush create name=sel q=px > 1e9"), body));
  CHECK(body.find("brush=sel") != std::string::npos);
  CHECK(body.find("epoch=1") != std::string::npos);
  const core::Selection sel = engine.select("px > 1e9");
  CHECK(svc::parse_response_line(client.request("count t=2 brush=sel"), body));
  CHECK_EQ(body.find("count=" + std::to_string(sel.count(2))), 0u);
  CHECK(body.find("epoch=1") != std::string::npos);

  // refine bumps the epoch; the answer moves to the conjunction.
  CHECK(svc::parse_response_line(
      client.request("brush refine name=sel q=y > 0"), body));
  CHECK(body.find("epoch=2") != std::string::npos);
  const core::Selection refined = engine.select("px > 1e9 && y > 0");
  CHECK(svc::parse_response_line(client.request("count t=2 brush=sel"), body));
  CHECK_EQ(body.find("count=" + std::to_string(refined.count(2))), 0u);
  CHECK(body.find("epoch=2") != std::string::npos);

  // invert, then subtract a second brush; differential twin via Selection.
  CHECK(svc::parse_response_line(
      client.request("brush create name=other q=x > 0"), body));
  CHECK(svc::parse_response_line(client.request("brush invert name=sel"), body));
  CHECK(body.find("epoch=3") != std::string::npos);
  CHECK(svc::parse_response_line(
      client.request("brush combine name=sel with=other op=andnot"), body));
  CHECK(body.find("epoch=4") != std::string::npos);
  const core::Selection combined =
      engine.select("!(px > 1e9 && y > 0) && !(x > 0)");
  CHECK(svc::parse_response_line(client.request("count t=1 brush=sel"), body));
  CHECK_EQ(body.find("count=" + std::to_string(combined.count(1))), 0u);

  // Typed errors — and the connection stays usable after each.
  CHECK(!svc::parse_response_line(client.request("count t=0 brush=nosuch"), body));
  CHECK(!svc::parse_response_line(
      client.request("count t=0 brush=sel q=px > 0"), body));  // both given
  CHECK(!svc::parse_response_line(
      client.request("zoom1 t=0 x=px bins=8 vlo=0 vhi=1 brush=sel"), body));
  CHECK(!svc::parse_response_line(
      client.request("brush create name=sel q=px > 0"), body));  // duplicate
  CHECK(!svc::parse_response_line(
      client.request("brush refine name=sel q=px >"), body));  // bad predicate
  CHECK(!svc::parse_response_line(
      client.request("brush refine name=nosuch q=px > 0"), body));
  CHECK(svc::parse_response_line(client.request("count t=1 brush=sel"), body));
  CHECK_EQ(body.find("count=" + std::to_string(combined.count(1))), 0u);

  // Brush cap (2 per session here): drop frees a slot, the cap rejects.
  CHECK(svc::parse_response_line(client.request("brush drop name=other"), body));
  CHECK(svc::parse_response_line(
      client.request("brush create name=b2 q=y > 0"), body));
  CHECK(!svc::parse_response_line(
      client.request("brush create name=b3 q=x > 0"), body));

  // Brushes are session-scoped: a second connection neither sees nor can
  // drop this one's, and may reuse the name.
  std::thread other([&] {
    svc::SocketClient c2(server.socket_path());
    std::string b;
    CHECK(!svc::parse_response_line(c2.request("count t=0 brush=sel"), b));
    CHECK(!svc::parse_response_line(c2.request("brush drop name=sel"), b));
    CHECK(svc::parse_response_line(
        c2.request("brush create name=sel q=y > 0"), b));
  });
  other.join();

  // c2's connection teardown drops its brush; ours still holds sel + b2.
  for (int i = 0; i < 500 && service.stats().brush_count != 2; ++i)
    ::usleep(10000);
  const svc::ServiceStats stats = service.stats();
  CHECK_EQ(stats.brush_count, 2u);
  CHECK_EQ(stats.brush_stale_hits, 0u);
  CHECK(stats.brush_queries >= 4u);
  CHECK(svc::parse_response_line(client.request("stats"), body));
  CHECK(body.find("brush_creates=") != std::string::npos);
  CHECK(body.find("brush_stale=0") != std::string::npos);

  server.stop();
  // Server teardown closes every session, releasing all brush state.
  CHECK_EQ(service.stats().brush_count, 0u);
}

/// The session-leak fix: a client that vanishes mid-conversation — work
/// submitted, response unread, no quit — must release its open_sessions
/// slot and its live brushes exactly once, leaving the server serviceable.
void test_abrupt_disconnect_releases_session_state() {
  svc::QueryService service{core::Engine::open(dataset_dir())};
  svc::SocketServer server(
      service, qdv::test::scratch_dir("service_kill") / "qdv.sock");
  server.start();
  const std::uint64_t base_sessions = service.stats().open_sessions;

  const auto doomed_client = [&](int which) {
    const int fd = connect_raw(server.socket_path());
    const auto send_line = [&](const std::string& text) {
      const std::string out = text + "\n";
      CHECK(::send(fd, out.data(), out.size(), 0) ==
            static_cast<ssize_t>(out.size()));
    };
    const auto read_reply = [&] {
      std::string reply;
      char ch = 0;
      while (reply.find('\n') == std::string::npos && ::recv(fd, &ch, 1, 0) == 1)
        reply.push_back(ch);
      return reply;
    };
    send_line("hello v=" + std::to_string(svc::kProtocolVersion));
    CHECK(read_reply().find("ok qdv") == 0u);
    send_line("brush create name=doomed q=px > " + std::to_string(which) + "e9");
    CHECK(read_reply().find("ok brush=doomed") == 0u);
    // Fire queries and hang up without reading a byte of the answers: the
    // serve thread is mid-execute (or blocked writing) when the peer dies.
    send_line("count t=3 brush=doomed");
    send_line("ids t=2 limit=64 q=y > 0");
    ::close(fd);
  };
  for (int i = 0; i < 3; ++i) doomed_client(i + 1);

  // Teardown is asynchronous; poll until every doomed session is gone.
  for (int i = 0; i < 500; ++i) {
    const svc::ServiceStats s = service.stats();
    if (s.open_sessions == base_sessions && s.brush_count == 0) break;
    ::usleep(10000);
  }
  const svc::ServiceStats after = service.stats();
  CHECK_EQ(after.open_sessions, base_sessions);
  CHECK_EQ(after.brush_count, 0u);

  // And the server is still fully serviceable.
  svc::SocketClient client(server.socket_path());
  CHECK_EQ(client.request("ping"), "ok pong");
  std::string body;
  CHECK(svc::parse_response_line(client.request("count t=0 q=px > 1e9"), body));
  server.stop();
}

/// Malformed query text through the wire — plain queries and brush verbs
/// alike: every probe answers with a typed ok/err line (never a hang, a
/// crash, or a dropped connection), and the session stays usable.
void test_malformed_query_text_probes() {
  svc::QueryService service{core::Engine::open(dataset_dir())};
  svc::SocketServer server(
      service, qdv::test::scratch_dir("service_malform") / "qdv.sock");
  server.start();
  svc::SocketClient client(server.socket_path());

  const char* bases[] = {"px > 1e9 && y > 0", "x > 0 || y < 0", "!(px > 2e9)"};
  std::uint64_t state = 0xfeedfaceULL;
  std::string body;
  std::size_t rejected = 0;
  const std::size_t probes = std::max<std::size_t>(test::fuzz::iterations(), 64);
  for (std::size_t i = 0; i < probes; ++i) {
    const std::string probe = test::fuzz::malform(state, bases[i % 3]);
    const std::string line =
        (i % 4 == 0)
            ? "brush create name=p" + std::to_string(i) + " q=" + probe
            : "count t=" + std::to_string(i % 8) + " q=" + probe;
    const std::string reply = client.request(line);
    CHECK(reply.rfind("ok", 0) == 0 || reply.rfind("err", 0) == 0);
    if (!svc::parse_response_line(reply, body)) {
      ++rejected;
    } else if (i % 4 == 0) {
      // A probe that happened to parse created a real brush; drop it so
      // the session's brush cap never interferes with later probes.
      CHECK(svc::parse_response_line(
          client.request("brush drop name=p" + std::to_string(i)), body));
    }
  }
  CHECK(rejected > 0);  // the corpus really does exercise the error path
  CHECK_EQ(client.request("ping"), "ok pong");
  CHECK_EQ(service.stats().brush_count, 0u);
  server.stop();
}

/// Wire-supplied bin counts whose edge arrays cannot exist. `bins=SIZE_MAX`
/// once wrapped `nbins + 1` to a zero-length edge array that the bin loop
/// then overran (a server crash from one line); a `hist2` shape whose
/// admission estimate wrapped to 80 bytes slipped under a finite budget.
void test_oversized_bin_counts() {
  svc::QueryService service{core::Engine::open(dataset_dir())};
  svc::SocketServer server(
      service, qdv::test::scratch_dir("service_bins") / "qdv.sock");
  server.start();
  svc::SocketClient client(server.socket_path());
  CHECK(client.request("hist1 t=0 x=px bins=18446744073709551615 q=px > 0")
            .rfind("err ", 0) == 0);
  CHECK_EQ(client.request("ping"), "ok pong");
  server.stop();

  svc::ServiceConfig budgeted;
  budgeted.session_budget_bytes = 1 << 20;
  svc::QueryService tight{core::Engine::open(dataset_dir()), budgeted};
  svc::SocketServer tight_server(
      tight, qdv::test::scratch_dir("service_bins_budget") / "qdv.sock");
  tight_server.start();
  svc::SocketClient tight_client(tight_server.socket_path());
  CHECK(tight_client
            .request("hist2 t=0 x=px y=x bins=4611686018427387904 q=px > 0")
            .rfind("err over-budget", 0) == 0);
  CHECK_EQ(tight_client.request("ping"), "ok pong");
  tight_server.stop();
}

}  // namespace

int main() {
  test_request_kinds_match_selection();
  test_result_cache_and_semantic_coalescing();
  test_inflight_coalescing_single_flight();
  test_priority_and_fairness_order();
  test_session_byte_budget();
  test_protocol_round_trip();
  test_strict_numeric_field_parsing();
  test_protocol_version_handshake();
  test_request_line_cap();
  test_socket_server_end_to_end();
  test_socket_server_under_svc_faults();
  test_brush_wire_session();
  test_abrupt_disconnect_releases_session_state();
  test_malformed_query_text_probes();
  test_oversized_bin_counts();
  return qdv::test::finish("test_service");
}
