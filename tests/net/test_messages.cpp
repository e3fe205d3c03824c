// Handshake frame codecs and version negotiation (core/net/messages.h).
//
// Round-trips hello/welcome, pins down the structural frame classification
// (a welcome carries both "ok" and "qpsnet" and must never be mistaken for
// a hello), and exercises the version-mismatch fail-fast path from both
// ends of the connection -- including hellos shaped by older protocols.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/net/job_server.h"
#include "core/net/messages.h"
#include "core/net/worker.h"
#include "core/sweep/sweep_spec.h"
#include "core/sweep/wire.h"
#include "util/json.h"

namespace qps::net {
namespace {

sweep::SweepSpec make_spec() {
  sweep::SweepSpec spec("msg_test_grid", 2026);
  spec.add_block("maj", {3, 5});
  spec.set_ps({0.25, 0.5});
  spec.set_config_tag("trials=100;target_sem=0");
  return spec;
}

std::string strip_newline(std::string line) {
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

TEST(Messages, PinnedHelloRoundTrips) {
  Hello hello;
  hello.node = "host:1234";
  hello.sweep = "exact_curves";
  hello.fingerprint = 0xfeedfacecafebeefULL;
  const auto value = JsonValue::parse(strip_newline(encode_hello(hello)));
  EXPECT_EQ(classify_line(value), LineKind::kHello);
  const auto decoded = decode_hello(value);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, kProtocolVersion);
  EXPECT_EQ(decoded->node, "host:1234");
  EXPECT_EQ(decoded->sweep, "exact_curves");
  EXPECT_EQ(decoded->fingerprint, 0xfeedfacecafebeefULL);
}

TEST(Messages, AcceptWelcomeRoundTripsWithSpecPayload) {
  const sweep::SweepSpec spec = make_spec();
  Welcome welcome;
  welcome.ok = true;
  welcome.heartbeat_seconds = 2.5;
  welcome.sweep = spec.name();
  welcome.fingerprint = spec.fingerprint();
  const auto value = JsonValue::parse(strip_newline(encode_welcome(welcome)));
  EXPECT_EQ(classify_line(value), LineKind::kWelcome);
  const auto decoded = decode_welcome(value);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->version, kProtocolVersion);
  EXPECT_EQ(decoded->heartbeat_seconds, 2.5);
  EXPECT_EQ(decoded->sweep, spec.name());
  EXPECT_EQ(decoded->fingerprint, spec.fingerprint());
}

TEST(Messages, DeclineWelcomeRoundTrips) {
  Welcome welcome;
  welcome.ok = false;
  welcome.error = "sweep 'x' is not active";
  welcome.retry = true;
  const auto value = JsonValue::parse(strip_newline(encode_welcome(welcome)));
  const auto decoded = decode_welcome(value);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->error, "sweep 'x' is not active");
  EXPECT_TRUE(decoded->retry);
}

TEST(Messages, ClassificationIsStructuralAndUnambiguous) {
  Hello hello;
  hello.node = "n";
  hello.sweep = "s";
  Welcome accept;
  accept.ok = true;
  accept.sweep = "s";
  // Regression: a welcome carries "qpsnet" too (the coordinator's version
  // echo); it must classify as kWelcome, not kHello.
  EXPECT_EQ(classify_line(JsonValue::parse(strip_newline(encode_hello(hello)))),
            LineKind::kHello);
  EXPECT_EQ(
      classify_line(JsonValue::parse(strip_newline(encode_welcome(accept)))),
      LineKind::kWelcome);
  EXPECT_EQ(
      classify_line(JsonValue::parse(strip_newline(sweep::encode_request(3)))),
      LineKind::kRequest);
  EXPECT_EQ(
      classify_line(JsonValue::parse(strip_newline(encode_heartbeat()))),
      LineKind::kHeartbeat);
  EXPECT_EQ(classify_line(JsonValue::parse(strip_newline(encode_bye()))),
            LineKind::kBye);
  EXPECT_EQ(classify_line(JsonValue::parse("{\"what\": 1}")),
            LineKind::kUnknown);
  EXPECT_EQ(classify_line(JsonValue::parse("[1, 2]")), LineKind::kUnknown);
}

TEST(Messages, MalformedFramesDecodeToNullopt) {
  const std::string v = std::to_string(kProtocolVersion);
  EXPECT_FALSE(decode_hello(JsonValue::parse("{\"qpsnet\": 1}")).has_value());
  EXPECT_FALSE(
      decode_hello(
          JsonValue::parse("{\"qpsnet\": " + v + ", \"node\": \"n\", "
                           "\"sweep\": \"\", \"fp\": \"0\"}"))
          .has_value());
  // A hello of this version must carry the sweep pin.
  EXPECT_FALSE(
      decode_hello(JsonValue::parse("{\"qpsnet\": " + v + ", \"node\": \"n\"}"))
          .has_value());
  EXPECT_FALSE(decode_hello(JsonValue::parse("{\"qpsnet\": " + v +
                                             ", \"node\": \"n\", "
                                             "\"sweep\": \"s\"}"))
                   .has_value());
  EXPECT_FALSE(decode_welcome(JsonValue::parse("{\"ok\": true}")).has_value());
  EXPECT_FALSE(
      decode_welcome(JsonValue::parse("{\"ok\": false, \"qpsnet\": 1}"))
          .has_value());
}

TEST(Messages, WorkerRejectsCoordinatorVersionMismatch) {
  Hello hello;
  hello.node = "w";
  hello.sweep = "s";
  WorkerEngine engine(hello);
  Welcome welcome;
  welcome.ok = true;
  welcome.version = kProtocolVersion + 1;
  welcome.sweep = "s";
  const auto event = engine.on_line(strip_newline(encode_welcome(welcome)));
  EXPECT_EQ(event.kind, WorkerEngine::Event::Kind::kProtocolError);
  // Both versions named: a mixed-version fleet should be debuggable from
  // one log line.
  EXPECT_NE(event.error.find("protocol version mismatch"), std::string::npos);
  EXPECT_NE(
      event.error.find("v" + std::to_string(kProtocolVersion)),
      std::string::npos);
  EXPECT_NE(
      event.error.find("v" + std::to_string(kProtocolVersion + 1)),
      std::string::npos);
}

TEST(Messages, CoordinatorDeclinesWorkerVersionMismatchAsFatal) {
  const std::vector<sweep::SweepPoint> points = make_spec().expand();
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < points.size(); ++i) pending.push_back(i);
  const auto pinned_hello = [](int version) {
    Hello hello;
    hello.version = version;
    hello.node = "old-worker";
    hello.sweep = "msg_test_grid";
    hello.fingerprint = make_spec().fingerprint();
    return encode_hello(hello);
  };
  // A newer worker, an older pinned one, and a v3 registry daemon, whose
  // hello carries no sweep pin at all: it too must be declined by version,
  // not dropped as a malformed hello.
  const std::vector<std::pair<int, std::string>> hellos = {
      {kProtocolVersion + 1, pinned_hello(kProtocolVersion + 1)},
      {kProtocolVersion - 1, pinned_hello(kProtocolVersion - 1)},
      {3, "{\"qpsnet\": 3, \"node\": \"old-worker\", "
          "\"evaluators\": [\"exact_ppc\"]}\n"},
  };
  for (const auto& [version, line] : hellos) {
    SCOPED_TRACE("worker hello " + line);
    JobServerEngine engine(points, "msg_test_grid", make_spec().fingerprint(),
                           pending, JobServerOptions{});
    engine.on_open(1, 0.0);
    engine.on_bytes(1, line, 0.0);
    const auto outbox = engine.take_outbox();
    ASSERT_EQ(outbox.size(), 1u);
    EXPECT_TRUE(outbox[0].close_after);
    const auto welcome =
        decode_welcome(JsonValue::parse(strip_newline(outbox[0].bytes)));
    ASSERT_TRUE(welcome.has_value());
    EXPECT_FALSE(welcome->ok);
    EXPECT_FALSE(welcome->retry);  // fatal: retrying the same binary is useless
    EXPECT_NE(welcome->error.find("protocol version mismatch"),
              std::string::npos);
    EXPECT_NE(welcome->error.find("old-worker"), std::string::npos);
    EXPECT_NE(welcome->error.find("coordinator speaks v" +
                                  std::to_string(kProtocolVersion)),
              std::string::npos);
    EXPECT_NE(welcome->error.find("speaks v" + std::to_string(version)),
              std::string::npos);
    EXPECT_EQ(engine.results_from_workers(), 0u);
    EXPECT_EQ(engine.dispatches(), 0u);
    EXPECT_EQ(engine.protocol_errors(), 0u);  // declined, not killed
    // And the worker engine surfaces that decline as non-retryable.
    Hello worker_hello;
    worker_hello.node = "old-worker";
    worker_hello.sweep = "msg_test_grid";
    WorkerEngine worker(worker_hello);
    const auto event = worker.on_line(strip_newline(outbox[0].bytes));
    EXPECT_EQ(event.kind, WorkerEngine::Event::Kind::kDeclined);
    EXPECT_FALSE(event.welcome.retry);
  }
}

TEST(Messages, HexU64RoundTripsEveryBitPattern) {
  for (const std::uint64_t value :
       {0ULL, 1ULL, 0xffffffffffffffffULL, 0x8000000000000001ULL,
        0x0123456789abcdefULL}) {
    const std::string hex = sweep::encode_hex_u64(value);
    EXPECT_EQ(hex.size(), 16u);
    const auto back = sweep::decode_hex_u64(hex);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, value);
  }
  EXPECT_FALSE(sweep::decode_hex_u64("xyz").has_value());
  EXPECT_FALSE(sweep::decode_hex_u64("00000000000000000").has_value());
}

}  // namespace
}  // namespace qps::net
