/**
 * @file
 * canon::service tests: the canon-rpc-1 frame codec (round-trips
 * under arbitrary chunking, typed rejection of oversize and unknown
 * frames, and a decoder fuzz pass that feeds random byte streams),
 * the typed message bodies, the admission policy, and end-to-end
 * daemon/client runs over a real Unix socket -- expansion-order
 * streaming, warm reruns executing zero simulation jobs, per-request
 * cache deltas for sequential clients of one shared engine,
 * byte-identical result streams for concurrent clients, quota and
 * draining rejections, cross-connection cancellation, graceful
 * drain, and a bounded drain past a client that stopped reading.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include <sys/socket.h>

#include "common/rng.hh"
#include "fuzz.hh"
#include "service/admission.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/render.hh"

namespace canon
{
namespace service
{
namespace
{

/** Per-test scratch dir: ctest -j runs tests concurrently. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name + "/";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ---- frame codec ------------------------------------------------------

TEST(FrameCodec, RoundTripsUnderArbitraryChunking)
{
    const std::vector<Frame> frames = {
        {MsgType::Hello, "proto=canon-rpc-1\n"},
        {MsgType::Submit, std::string(1000, 'x')},
        {MsgType::Result, ""},
        {MsgType::Done, "job=1\n"},
    };
    std::string wire;
    for (const auto &f : frames)
        wire += encodeFrame(f);

    // Every chunk size must yield the same frames: framing cannot
    // depend on how the kernel splits the stream.
    for (std::size_t chunk : {1u, 2u, 3u, 7u, 64u, 4096u}) {
        FrameDecoder dec;
        std::vector<Frame> got;
        for (std::size_t i = 0; i < wire.size(); i += chunk) {
            dec.feed(wire.data() + i,
                     std::min(chunk, wire.size() - i));
            Frame f;
            while (dec.next(f) == FrameDecoder::Status::Ready)
                got.push_back(f);
        }
        ASSERT_EQ(got.size(), frames.size()) << "chunk " << chunk;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            EXPECT_EQ(got[i].type, frames[i].type);
            EXPECT_EQ(got[i].payload, frames[i].payload);
        }
        EXPECT_EQ(dec.pendingBytes(), 0u);
    }
}

TEST(FrameCodec, OversizeFrameIsATypedErrorBeforeAllocation)
{
    // A hostile 4 GiB length field must stop the stream from the
    // 5-byte header alone.
    FrameDecoder dec;
    const char header[5] = {'\xff', '\xff', '\xff', '\xff',
                            static_cast<char>(MsgType::Hello)};
    dec.feed(header, sizeof(header));
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::Error);
    EXPECT_EQ(dec.error(), DecodeError::OversizeFrame);

    // A stopped decoder stays stopped: the stream cannot resync.
    dec.feed(encodeFrame({MsgType::Hello, "ok"}));
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::Error);

    // The cap itself is inclusive; one byte over trips it.
    FrameDecoder tight(16);
    tight.feed(encodeFrame({MsgType::Hello, std::string(16, 'a')}));
    EXPECT_EQ(tight.next(f), FrameDecoder::Status::Ready);
    tight.feed(encodeFrame({MsgType::Hello, std::string(17, 'a')}));
    EXPECT_EQ(tight.next(f), FrameDecoder::Status::Error);
    EXPECT_EQ(tight.error(), DecodeError::OversizeFrame);
}

TEST(FrameCodec, UnknownTypeIsATypedError)
{
    FrameDecoder dec;
    const char header[5] = {1, 0, 0, 0, 99};
    dec.feed(header, sizeof(header));
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::Error);
    EXPECT_EQ(dec.error(), DecodeError::UnknownType);
    EXPECT_FALSE(knownMsgType(99));
    EXPECT_TRUE(knownMsgType(
        static_cast<std::uint8_t>(MsgType::StatsReply)));
}

TEST(FrameCodec, FuzzedStreamsNeverCrashTheDecoder)
{
    // Random byte soup: the decoder must always land in NeedMore or
    // a typed error, never crash or buffer unboundedly past the cap.
    Rng rng(7);
    for (int round = 0; round < 200; ++round) {
        FrameDecoder dec(4096);
        std::string bytes;
        const std::size_t n = rng.nextBounded(512) + 1;
        for (std::size_t i = 0; i < n; ++i)
            bytes.push_back(
                static_cast<char>(rng.nextBounded(256)));
        dec.feed(bytes);
        Frame f;
        for (int steps = 0; steps < 64; ++steps) {
            const auto s = dec.next(f);
            if (s != FrameDecoder::Status::Ready)
                break;
        }
        SUCCEED();
    }

    // Truncations of valid streams: every prefix either yields whole
    // frames then NeedMore, and never an error (truncation is not a
    // protocol violation -- the peer may just be slow).
    std::string wire;
    for (int i = 0; i < 8; ++i)
        wire += encodeFrame(
            {MsgType::Result, std::string(rng.nextBounded(64), 'r')});
    for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
        FrameDecoder dec;
        dec.feed(wire.data(), cut);
        Frame f;
        FrameDecoder::Status s;
        while ((s = dec.next(f)) == FrameDecoder::Status::Ready)
            ;
        EXPECT_EQ(s, FrameDecoder::Status::NeedMore) << cut;
    }

    // Random valid frame sequences round-trip regardless of how the
    // stream is sliced.
    for (int round = 0; round < 50; ++round) {
        std::vector<Frame> frames;
        std::string stream;
        const std::size_t count = rng.nextBounded(6) + 1;
        for (std::size_t i = 0; i < count; ++i) {
            Frame f{rng.nextBool(0.5) ? MsgType::Result
                                      : MsgType::Stats,
                    std::string(rng.nextBounded(128), 'p')};
            frames.push_back(f);
            stream += encodeFrame(f);
        }
        FrameDecoder dec;
        std::size_t fed = 0, got = 0;
        Frame f;
        while (fed < stream.size()) {
            const std::size_t chunk = std::min(
                stream.size() - fed, rng.nextBounded(32) + 1);
            dec.feed(stream.data() + fed, chunk);
            fed += chunk;
            while (dec.next(f) == FrameDecoder::Status::Ready) {
                ASSERT_LT(got, frames.size());
                EXPECT_EQ(f.payload, frames[got].payload);
                ++got;
            }
        }
        EXPECT_EQ(got, frames.size());
    }
}

// ---- payload codecs ---------------------------------------------------

TEST(KvCodec, RoundTripsAndRejectsJunk)
{
    std::string error;
    const KvPairs records = {
        {"client", "alice"}, {"priority", "3"}, {"opt.m", "64"},
        {"arch", "canon"},   {"arch", "zed"}, // duplicates kept
    };
    const std::string payload = encodeKv(records, error);
    ASSERT_TRUE(error.empty()) << error;
    KvPairs back;
    ASSERT_TRUE(decodeKv(payload, back, error)) << error;
    EXPECT_EQ(back, records);

    EXPECT_TRUE(decodeKv("", back, error));
    EXPECT_TRUE(back.empty());

    EXPECT_FALSE(decodeKv("no-equals\n", back, error));
    EXPECT_FALSE(decodeKv("=value\n", back, error));
    EXPECT_FALSE(decodeKv("key=truncated", back, error));

    EXPECT_TRUE(encodeKv({{"bad=key", "v"}}, error).empty());
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(encodeKv({{"k", "line\nbreak"}}, error).empty());
}

TEST(SubmitCodec, RoundTripsAndStaysStrict)
{
    SubmitBody body;
    body.client = "alice";
    body.priority = -2;
    body.opt("workload", "spmm")
        .opt("m", "64")
        .sweep("sparsity", "0.3,0.7")
        .arch("canon")
        .arch("zed");

    std::string error;
    const std::string payload = encodeSubmit(body, error);
    ASSERT_TRUE(error.empty()) << error;

    SubmitBody back;
    ASSERT_TRUE(decodeSubmit(payload, back, error)) << error;
    EXPECT_EQ(back.client, "alice");
    EXPECT_EQ(back.priority, -2);
    ASSERT_EQ(back.entries.size(), body.entries.size());
    for (std::size_t i = 0; i < body.entries.size(); ++i) {
        EXPECT_EQ(back.entries[i].kind, body.entries[i].kind);
        EXPECT_EQ(back.entries[i].key, body.entries[i].key);
        EXPECT_EQ(back.entries[i].value, body.entries[i].value);
    }

    // Strictness: unknown records, missing identity, junk priority.
    SubmitBody out;
    EXPECT_FALSE(decodeSubmit("client=a\npriority=0\nbogus=1\n", out,
                              error));
    EXPECT_FALSE(decodeSubmit("priority=0\n", out, error));
    EXPECT_FALSE(decodeSubmit("client=a\n", out, error));
    EXPECT_FALSE(
        decodeSubmit("client=a\npriority=soon\n", out, error));
    EXPECT_FALSE(decodeSubmit("client=a\npriority=0\nopt.=x\n", out,
                              error));
}

TEST(DoneCodec, RoundTrips)
{
    DoneBody body;
    body.jobId = 42;
    body.scenarios = 9;
    body.failures = 2;
    body.cancelled = 1;
    body.cacheLine = "cache: 7 hits, 2 misses, 2 stored;"
                     " simulation jobs executed: 2";
    body.queueWaitUs = 12345;

    std::string error;
    const std::string payload = encodeDone(body, error);
    ASSERT_TRUE(error.empty()) << error;
    DoneBody back;
    ASSERT_TRUE(decodeDone(payload, back, error)) << error;
    EXPECT_EQ(back.jobId, 42u);
    EXPECT_EQ(back.scenarios, 9u);
    EXPECT_EQ(back.failures, 2u);
    EXPECT_EQ(back.cancelled, 1u);
    EXPECT_EQ(back.cacheLine, body.cacheLine);
    EXPECT_EQ(back.queueWaitUs, 12345u);

    DoneBody out;
    EXPECT_FALSE(decodeDone("job=1\nscenarios=soon\n", out, error));
}

TEST(ResultFrame, RoundTripsIndexAndText)
{
    runner::ScenarioResult r;
    r.job.index = 7;
    r.error = "boom";
    const std::string payload = encodeResultFrame(7, r);

    std::size_t index = 0;
    std::string text, error;
    ASSERT_TRUE(decodeResultFrame(payload, index, text, error))
        << error;
    EXPECT_EQ(index, 7u);
    EXPECT_NE(text.find("error: boom"), std::string::npos);

    EXPECT_FALSE(decodeResultFrame("garbage", index, text, error));
    EXPECT_FALSE(decodeResultFrame("index=x\n\ntext", index, text,
                                   error));
}

TEST(ResultFrame, FuzzedPayloadsNeverThrow)
{
    // Submit bodies reach the daemon and Done/Result payloads reach
    // canonctl from a socket: every decode of byte soup, a truncated
    // or mutated payload, or an overlong number returns true or
    // false and never throws.
    SubmitBody body;
    body.client = "alice";
    body.priority = -2;
    body.opt("workload", "spmm").sweep("sparsity", "0.3,0.7");
    DoneBody done;
    done.jobId = 42;
    done.scenarios = 9;
    done.queueWaitUs = 12345;
    runner::ScenarioResult r;
    r.error = "boom";
    std::string error;
    const std::string submit = encodeSubmit(body, error);
    const std::string done_payload = encodeDone(done, error);
    ASSERT_TRUE(error.empty()) << error;

    SubmitBody body_out;
    DoneBody done_out;
    std::size_t index = 0;
    std::string text;
    for (const auto &bytes : fuzzInputs(submit, 21))
        EXPECT_NO_THROW(decodeSubmit(bytes, body_out, error));
    for (const auto &bytes : fuzzInputs(done_payload, 22))
        EXPECT_NO_THROW(decodeDone(bytes, done_out, error));
    for (const auto &bytes : fuzzInputs(encodeResultFrame(12, r), 23))
        EXPECT_NO_THROW(decodeResultFrame(bytes, index, text, error));
    EXPECT_FALSE(decodeResultFrame("index=123456789012345678901234\n\nx",
                                   index, text, error));
}

// ---- admission policy -------------------------------------------------

TEST(Admission, PriorityThenFairnessThenArrival)
{
    std::map<std::string, std::uint64_t> admitted;
    std::vector<Ticket> waiting = {
        {0, 0, "a"},
        {1, 5, "b"},
        {2, 5, "c"},
    };
    // Highest priority wins; equal priorities fall to arrival.
    EXPECT_EQ(pickNext(waiting, admitted), 1u);

    // Fairness: the client with fewer prior admissions goes first
    // even though it arrived later.
    admitted["b"] = 3;
    EXPECT_EQ(pickNext(waiting, admitted), 2u);

    // Equal priority and equal admissions: strict arrival order.
    admitted["c"] = 3;
    EXPECT_EQ(pickNext(waiting, admitted), 1u);

    // Priority always dominates fairness.
    admitted["a"] = 0;
    waiting.push_back({3, 9, "b"});
    EXPECT_EQ(pickNext(waiting, admitted), 3u);
}

TEST(Admission, QueueGrantsAtMostMaxActiveAndCloseWakes)
{
    AdmissionQueue q(2);
    const Ticket t1 = q.enqueue(0, "a");
    const Ticket t2 = q.enqueue(0, "b");
    const Ticket t3 = q.enqueue(0, "c");
    EXPECT_TRUE(q.awaitGrant(t1));
    EXPECT_TRUE(q.awaitGrant(t2));
    EXPECT_EQ(q.activeCount(), 2);
    EXPECT_EQ(q.waitingCount(), 1u);

    // The third waits until a slot releases.
    std::atomic<bool> granted{false};
    std::thread waiter([&] {
        granted.store(q.awaitGrant(t3));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(granted.load());
    q.release();
    waiter.join();
    EXPECT_TRUE(granted.load());

    // Close wakes and refuses late arrivals.
    const Ticket t4 = q.enqueue(0, "d");
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.close();
    });
    EXPECT_FALSE(q.awaitGrant(t4));
    closer.join();
    EXPECT_FALSE(q.awaitGrant(q.enqueue(0, "e")));
}

// ---- canond arguments -------------------------------------------------

TEST(DaemonArgs, AcceptsEveryDaemonFlagInBothSpellings)
{
    const std::vector<std::pair<std::string, std::string>> flags = {
        {"--socket", "s.sock"},     {"--jobs", "3"},
        {"--cache-dir", "cache"},   {"--cache", "read"},
        {"--max-active", "5"},      {"--job-quota", "7"},
        {"--drain-wait-ms", "0"}};
    std::vector<std::string> split, joined;
    for (const auto &[key, value] : flags) {
        split.insert(split.end(), {key, value});
        joined.push_back(key + "=" + value);
    }
    for (const auto &args : {split, joined}) {
        DaemonConfig cfg;
        bool help = false;
        EXPECT_EQ(parseDaemonArgs(args, cfg, help), "");
        EXPECT_FALSE(help);
        EXPECT_EQ(cfg.socketPath, "s.sock");
        EXPECT_EQ(cfg.jobs, 3);
        EXPECT_EQ(cfg.cacheDir, "cache");
        EXPECT_EQ(cfg.cacheMode, cache::Mode::Read);
        EXPECT_EQ(cfg.maxActive, 5);
        EXPECT_EQ(cfg.jobQuota, 7u);
        EXPECT_EQ(cfg.drainWaitMs, 0);
    }

    // Defaults, and --help ahead of the required --socket.
    DaemonConfig cfg;
    bool help = false;
    EXPECT_EQ(parseDaemonArgs({"--socket", "s"}, cfg, help), "");
    EXPECT_EQ(cfg.jobs, 0);
    EXPECT_TRUE(cfg.cacheDir.empty());
    EXPECT_EQ(cfg.cacheMode, cache::Mode::ReadWrite);
    EXPECT_EQ(cfg.maxActive, 2);
    for (const char *flag : {"--help", "-h"}) {
        help = false;
        EXPECT_EQ(parseDaemonArgs({flag}, cfg, help), "");
        EXPECT_TRUE(help) << flag;
    }
}

TEST(DaemonArgs, RejectsIgnoredFlagsAndNamesTheFlagOfABadValue)
{
    auto parse = [](std::vector<std::string> args) {
        DaemonConfig cfg;
        bool help = false;
        args.insert(args.begin(), {"--socket", "s"});
        return parseDaemonArgs(args, cfg, help);
    };
    // Requests carry no shard and no observability options, so the
    // daemon has nothing to apply these to.
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"--shard", "1/2"},
             {"--sample-every", "10"},
             {"--series-out", "s.csv"},
             {"--trace-out", "t.json"},
             {"--stats-json", "st.json"},
             {"--cycle-accounting"},
             {"--host-timers"},
             {"--bogus", "1"}})
        EXPECT_EQ(parse(args), "unknown option '" + args[0] + "'");

    EXPECT_EQ(parse({"--max-active", "0"}),
              "bad value '0' for --max-active");
    EXPECT_EQ(parse({"--max-active=x"}), "bad value 'x' for --max-active");
    EXPECT_EQ(parse({"--job-quota", "-1"}),
              "bad value '-1' for --job-quota");
    EXPECT_EQ(parse({"--drain-wait-ms", "-5"}),
              "bad value '-5' for --drain-wait-ms");
    EXPECT_EQ(parse({"--max-active"}), "--max-active needs a value");
    EXPECT_EQ(parse({"--jobs", "0"}),
              "option '--jobs' expects an integer in [1, 256], got '0'");
    EXPECT_NE(parse({"--cache-dir", "d", "--cache", "ro"})
                  .find("option '--cache' expects off | read"),
              std::string::npos);
    EXPECT_EQ(parse({"--cache", "read"}),
              "option '--cache' requires --cache-dir");

    DaemonConfig cfg;
    bool help = false;
    EXPECT_EQ(parseDaemonArgs({"--jobs", "2"}, cfg, help),
              "--socket is required");
}

// ---- daemon end-to-end ------------------------------------------------

SubmitBody
sweepBody(const std::string &client)
{
    SubmitBody body;
    body.client = client;
    body.opt("workload", "spmm")
        .opt("m", "64")
        .opt("k", "64")
        .opt("n", "16")
        .sweep("sparsity", "0.3,0.5,0.7");
    return body;
}

struct DaemonFixture
{
    explicit DaemonFixture(const std::string &name,
                           DaemonConfig cfg = {})
    {
        const std::string dir = scratchDir(name);
        cfg.socketPath = dir + "canond.sock";
        if (cfg.jobs == 0)
            cfg.jobs = 2;
        daemon = std::make_unique<Daemon>(cfg);
        const std::string error = daemon->start();
        EXPECT_TRUE(error.empty()) << error;
    }

    Client connect()
    {
        Client c;
        const std::string error =
            c.connect(daemon->config().socketPath);
        EXPECT_TRUE(error.empty()) << error;
        return c;
    }

    std::unique_ptr<Daemon> daemon;
};

TEST(Daemon, HandshakeListAndStats)
{
    DaemonFixture fx("svc_hello");
    Client c = fx.connect();
    EXPECT_EQ(c.daemonWorkers(), 2);
    EXPECT_FALSE(c.daemonCacheOn());

    std::string text, error;
    ASSERT_TRUE(c.list(text, error)) << error;
    EXPECT_NE(text.find("spmm"), std::string::npos);

    ASSERT_TRUE(c.stats(text, error)) << error;
    EXPECT_NE(text.find("service.proto: canon-rpc-1"),
              std::string::npos);
    EXPECT_NE(text.find("service.engine.cache: off"),
              std::string::npos);
    EXPECT_NE(text.find("service.clients.total: 1"),
              std::string::npos);
}

TEST(Daemon, RejectsWrongProtocolRevision)
{
    DaemonFixture fx("svc_proto");
    std::string error;
    Fd fd = connectUnix(fx.daemon->config().socketPath, error);
    ASSERT_TRUE(fd.valid()) << error;
    std::string payload = encodeKv({{"proto", "canon-rpc-0"}}, error);
    ASSERT_TRUE(sendFrame(fd, Frame{MsgType::Hello, payload}));
    FrameDecoder dec;
    Frame reply;
    ASSERT_EQ(readFrame(fd, dec, reply, error), ReadStatus::Frame)
        << error;
    EXPECT_EQ(reply.type, MsgType::Error);
    EXPECT_NE(reply.payload.find("canon-rpc-1"), std::string::npos);
}

TEST(Daemon, SubmitStreamsResultsInExpansionOrder)
{
    DaemonFixture fx("svc_stream");
    Client c = fx.connect();

    std::vector<std::size_t> indices;
    std::string stream;
    SubmitOutcome outcome;
    std::string error;
    ASSERT_TRUE(c.submit(
        sweepBody("alice"),
        [&](std::size_t index, const std::string &text) {
            indices.push_back(index);
            stream += text;
        },
        outcome, error))
        << error;

    ASSERT_TRUE(outcome.accepted) << outcome.message;
    EXPECT_EQ(outcome.scenarios, 3u);
    EXPECT_EQ(outcome.done.scenarios, 3u);
    EXPECT_EQ(outcome.done.failures, 0u);
    EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_NE(stream.find("scenario 0"), std::string::npos);
    EXPECT_NE(stream.find("s=0.3"), std::string::npos);
    EXPECT_NE(stream.find("canon:"), std::string::npos);
    // Uncached daemon: no cache line in the summary.
    EXPECT_TRUE(outcome.done.cacheLine.empty());
}

TEST(Daemon, InvalidRequestGetsTypedRejection)
{
    DaemonFixture fx("svc_invalid");
    Client c = fx.connect();

    SubmitBody body;
    body.client = "alice";
    body.opt("sparsity", "2.0");
    SubmitOutcome outcome;
    std::string error;
    ASSERT_TRUE(c.submit(body, {}, outcome, error)) << error;
    EXPECT_FALSE(outcome.accepted);
    EXPECT_EQ(outcome.reason, RejectReason::InvalidRequest);
    EXPECT_NE(outcome.message.find("--sparsity"), std::string::npos);
}

TEST(Daemon, PlanOfAnInvalidRequestIsRejected)
{
    DaemonFixture fx("svc_plan_invalid");
    Client c = fx.connect();

    SubmitBody body;
    body.client = "alice";
    body.opt("sparsity", "2.0");
    std::string text, error;
    EXPECT_FALSE(c.plan(body, text, error));
    EXPECT_EQ(error.rfind("plan rejected: ", 0), 0u) << error;
    EXPECT_NE(error.find("--sparsity"), std::string::npos) << error;
    EXPECT_TRUE(text.empty()) << text;

    // The rejection is counted, and the connection still serves.
    ASSERT_TRUE(c.stats(text, error)) << error;
    EXPECT_NE(text.find("service.requests.rejected.invalid_request: 1"),
              std::string::npos)
        << text;
}

TEST(Daemon, WarmRerunAndPerRequestDeltasForSequentialClients)
{
    DaemonConfig cfg;
    cfg.cacheDir = scratchDir("svc_warm_cache") + "cache";
    DaemonFixture fx("svc_warm", cfg);

    // Client A runs cold: the delta reports 3 misses, 3 stores.
    Client a = fx.connect();
    EXPECT_TRUE(a.daemonCacheOn());
    SubmitOutcome first;
    std::string error;
    std::string stream_a;
    ASSERT_TRUE(a.submit(
        sweepBody("alice"),
        [&](std::size_t, const std::string &text) {
            stream_a += text;
        },
        first, error))
        << error;
    ASSERT_TRUE(first.accepted) << first.message;
    EXPECT_NE(first.done.cacheLine.find(
                  "3 misses, 3 stored; simulation jobs executed: 3"),
              std::string::npos)
        << first.done.cacheLine;

    // Client B reruns against the same warm daemon. The cache line
    // must be B's *own* delta -- all hits, zero jobs executed -- not
    // the engine's process-lifetime totals (which would report A's
    // misses and stores too).
    Client b = fx.connect();
    SubmitOutcome second;
    std::string stream_b;
    ASSERT_TRUE(b.submit(
        sweepBody("bob"),
        [&](std::size_t, const std::string &text) {
            stream_b += text;
        },
        second, error))
        << error;
    ASSERT_TRUE(second.accepted) << second.message;
    EXPECT_NE(second.done.cacheLine.find(
                  "3 hits, 0 misses, 0 stored; simulation jobs"
                  " executed: 0"),
              std::string::npos)
        << second.done.cacheLine;

    // Hit or simulate, the rendered stream is byte-identical.
    EXPECT_EQ(stream_a, stream_b);
}

TEST(Daemon, ConcurrentClientsGetByteIdenticalStreams)
{
    DaemonConfig cfg;
    cfg.cacheDir = scratchDir("svc_conc_cache") + "cache";
    cfg.maxActive = 4;
    DaemonFixture fx("svc_conc", cfg);

    // Warm the cache first so the concurrent runs are hit-only and
    // their per-request deltas are deterministic too.
    {
        Client warm = fx.connect();
        SubmitOutcome outcome;
        std::string error;
        ASSERT_TRUE(
            warm.submit(sweepBody("warm"), {}, outcome, error))
            << error;
        ASSERT_TRUE(outcome.accepted) << outcome.message;
    }

    constexpr int kClients = 4;
    std::vector<std::string> streams(kClients);
    std::vector<std::string> cache_lines(kClients);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            Client c;
            if (!c.connect(fx.daemon->config().socketPath).empty()) {
                failures.fetch_add(1);
                return;
            }
            SubmitOutcome outcome;
            std::string error;
            const bool ok = c.submit(
                sweepBody("client-" + std::to_string(i)),
                [&](std::size_t, const std::string &text) {
                    streams[i] += text;
                },
                outcome, error);
            if (!ok || !outcome.accepted)
                failures.fetch_add(1);
            cache_lines[i] = outcome.done.cacheLine;
        });
    }
    for (auto &t : threads)
        t.join();
    ASSERT_EQ(failures.load(), 0);

    for (int i = 1; i < kClients; ++i) {
        EXPECT_EQ(streams[i], streams[0]) << "client " << i;
        EXPECT_EQ(cache_lines[i], cache_lines[0]) << "client " << i;
    }
    EXPECT_NE(cache_lines[0].find("simulation jobs executed: 0"),
              std::string::npos)
        << cache_lines[0];
}

TEST(Daemon, QuotaRejectsColdSweepButAdmitsWarmTwin)
{
    DaemonConfig cfg;
    cfg.cacheDir = scratchDir("svc_quota_cache") + "cache";
    cfg.jobQuota = 1;
    DaemonFixture fx("svc_quota", cfg);
    Client c = fx.connect();

    // Cold: the sweep forecasts 3 simulation jobs, over quota.
    SubmitOutcome outcome;
    std::string error;
    ASSERT_TRUE(c.submit(sweepBody("alice"), {}, outcome, error))
        << error;
    EXPECT_FALSE(outcome.accepted);
    EXPECT_EQ(outcome.reason, RejectReason::QuotaExceeded);
    EXPECT_NE(outcome.message.find("forecast 3"), std::string::npos);

    // Warm the cache one scenario at a time (each within quota).
    for (const char *s : {"0.3", "0.5", "0.7"}) {
        SubmitBody one;
        one.client = "alice";
        one.opt("workload", "spmm")
            .opt("m", "64")
            .opt("k", "64")
            .opt("n", "16")
            .opt("sparsity", s);
        ASSERT_TRUE(c.submit(one, {}, outcome, error)) << error;
        ASSERT_TRUE(outcome.accepted) << outcome.message;
    }

    // The same sweep now forecasts 0 jobs: hits are free.
    ASSERT_TRUE(c.submit(sweepBody("alice"), {}, outcome, error))
        << error;
    EXPECT_TRUE(outcome.accepted) << outcome.message;
    EXPECT_EQ(outcome.predictedJobs, 0u);
    EXPECT_NE(outcome.done.cacheLine.find(
                  "simulation jobs executed: 0"),
              std::string::npos);

    // plan() over the wire agrees.
    std::string text;
    ASSERT_TRUE(c.plan(sweepBody("alice"), text, error)) << error;
    EXPECT_NE(text.find("simulation jobs to execute: 0"),
              std::string::npos)
        << text;
}

TEST(Daemon, CancelFromASecondConnection)
{
    DaemonConfig cfg;
    cfg.jobs = 1; // serialize scenarios so the cancel lands mid-run
    DaemonFixture fx("svc_cancel", cfg);

    SubmitBody body;
    body.client = "alice";
    body.opt("workload", "spmm")
        .opt("m", "128")
        .opt("k", "128")
        .opt("n", "32")
        .sweep("sparsity",
               "0.05,0.10,0.15,0.20,0.25,0.30,0.35,0.40,0.45,0.50,"
               "0.55,0.60,0.65,0.70,0.75,0.80,0.85,0.90")
        .sweep("rows", "4,8");

    Client runner = fx.connect();
    Client killer = fx.connect();
    SubmitOutcome outcome;
    std::string error;
    bool cancel_sent = false;
    ASSERT_TRUE(runner.submit(
        body,
        [&](std::size_t, const std::string &) {
            if (cancel_sent)
                return;
            cancel_sent = true;
            // outcome.jobId is filled by the Accepted frame, which
            // precedes every Result frame on this connection. A
            // malformed id never matches the live job.
            std::string cancel_error;
            Fd raw = connectUnix(fx.daemon->config().socketPath,
                                 cancel_error);
            FrameDecoder dec;
            Frame reply;
            ASSERT_TRUE(sendFrame(
                raw, Frame{MsgType::Hello, "proto=canon-rpc-1\n"}));
            ASSERT_EQ(readFrame(raw, dec, reply, cancel_error),
                      ReadStatus::Frame);
            ASSERT_TRUE(sendFrame(
                raw, Frame{MsgType::Cancel,
                           "job=" + std::to_string(outcome.jobId) +
                               "x\n"}));
            ASSERT_EQ(readFrame(raw, dec, reply, cancel_error),
                      ReadStatus::Frame);
            EXPECT_EQ(reply.payload, "found=0\n");

            bool found = false;
            EXPECT_TRUE(killer.cancel(outcome.jobId, found,
                                      cancel_error))
                << cancel_error;
            EXPECT_TRUE(found);
        },
        outcome, error))
        << error;

    ASSERT_TRUE(outcome.accepted) << outcome.message;
    EXPECT_TRUE(cancel_sent);
    EXPECT_EQ(outcome.done.scenarios, 36u);
    // Every scenario either ran or was skipped with the typed
    // cancellation error; the skipped ones count as failures.
    EXPECT_GT(outcome.done.cancelled, 0u);
    EXPECT_EQ(outcome.done.failures, outcome.done.cancelled);

    // The job is gone: a second cancel finds nothing.
    bool found = true;
    ASSERT_TRUE(killer.cancel(outcome.jobId, found, error)) << error;
    EXPECT_FALSE(found);
}

TEST(Daemon, DrainingRejectsNewSubmitsAndStopsCleanly)
{
    DaemonFixture fx("svc_drain");
    Client c = fx.connect();

    // Run one real submission so the drain has had traffic.
    SubmitOutcome outcome;
    std::string error;
    ASSERT_TRUE(c.submit(sweepBody("alice"), {}, outcome, error))
        << error;
    ASSERT_TRUE(outcome.accepted) << outcome.message;

    fx.daemon->requestStop();
    ASSERT_TRUE(c.submit(sweepBody("alice"), {}, outcome, error))
        << error;
    EXPECT_FALSE(outcome.accepted);
    EXPECT_EQ(outcome.reason, RejectReason::Draining);

    // Nothing was in flight: the drain is clean.
    EXPECT_EQ(fx.daemon->stop(), 0);
    EXPECT_EQ(fx.daemon->exitCode(), 0);
    EXPECT_NE(fx.daemon->statsText().find(
                  "service.requests.rejected.draining: 1"),
              std::string::npos);
}

TEST(Daemon, DrainDeadlineUnblocksAClientThatStoppedReading)
{
    // A client that shrinks its receive buffer, submits a long sweep
    // and never reads: the one pool worker blocks sending it a Result
    // frame. Past the drain deadline stop() must cancel the job, get
    // the worker out of its send and return 1 -- not hang.
    DaemonConfig cfg;
    cfg.jobs = 1;
    cfg.drainWaitMs = 200;
    DaemonFixture fx("svc_stalled", cfg);

    std::string error;
    Fd fd = connectUnix(fx.daemon->config().socketPath, error);
    ASSERT_TRUE(fd.valid()) << error;
    const int rcvbuf = 4096;
    ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof(rcvbuf)),
              0);
    ASSERT_TRUE(
        sendFrame(fd, Frame{MsgType::Hello, "proto=canon-rpc-1\n"}));
    std::string seeds = "1";
    for (int s = 2; s <= 2000; ++s)
        seeds += "," + std::to_string(s);
    SubmitBody body;
    body.client = "stalled";
    body.opt("workload", "spmm")
        .opt("m", "16")
        .opt("k", "16")
        .opt("n", "16")
        .sweep("seed", seeds);
    const std::string payload = encodeSubmit(body, error);
    ASSERT_TRUE(sendFrame(fd, Frame{MsgType::Submit, payload})) << error;

    // The stream has stalled once the streamed count stops moving for
    // half a second short of the whole sweep.
    const auto &streamed = fx.daemon->stats().scenariosStreamed;
    std::uint64_t seen = 0;
    for (int quiet = 0, polls = 0; quiet < 5 && polls < 600; ++polls) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const std::uint64_t now = streamed.load();
        quiet = now > 0 && now == seen ? quiet + 1 : 0;
        seen = now;
    }
    ASSERT_GT(seen, 0u);
    ASSERT_LT(seen, 2000u) << "the sweep never blocked on the client";

    auto stopped = std::async(std::launch::async,
                              [&] { return fx.daemon->stop(); });
    const bool returned = stopped.wait_for(std::chrono::seconds(5)) ==
                          std::future_status::ready;
    // Closing the client fails the blocked send, so a daemon that
    // missed its deadline fails this test instead of hanging it.
    if (!returned)
        fd.reset();
    EXPECT_TRUE(returned)
        << "stop() still blocked 5 s after a 200 ms drain deadline";
    EXPECT_EQ(stopped.get(), 1);
    EXPECT_EQ(fx.daemon->exitCode(), 1);
}

} // namespace
} // namespace service
} // namespace canon
