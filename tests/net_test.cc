// Tests for src/net: the RESP parser (framing, resumption, limits), the
// reply/framing helpers, and a loopback integration test of FasterServer
// (pipelining past kBatchChunk, forced segment splits, INCR exactness
// within and across workers, multi-key DEL, clean shutdown). The integration tests run under ASan/TSan via the
// normal `unit` label; they use ephemeral ports only.

#include "net/resp.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "mini_json.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/perf.h"
#include "obs/slowlog.h"
#include "obs/store_view.h"

namespace faster {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// RespParser framing.
// ---------------------------------------------------------------------------

std::vector<std::vector<std::string>> ParseAll(RespParser* p) {
  std::vector<std::vector<std::string>> out;
  RespCommand cmd;
  while (p->Next(&cmd) == RespParser::Result::kCommand) {
    out.push_back(cmd.argv);
  }
  return out;
}

TEST(RespParser, InlineCommand) {
  RespParser p{RespLimits{}};
  p.Feed("PING\r\n", 6);
  auto cmds = ParseAll(&p);
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0], (std::vector<std::string>{"PING"}));
}

TEST(RespParser, InlineTokenization) {
  RespParser p{RespLimits{}};
  std::string in = "SET  key   value\r\n\r\nGET key\r\n";
  p.Feed(in.data(), in.size());
  auto cmds = ParseAll(&p);  // blank line skipped
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0], (std::vector<std::string>{"SET", "key", "value"}));
  EXPECT_EQ(cmds[1], (std::vector<std::string>{"GET", "key"}));
}

TEST(RespParser, InlineBareLf) {
  RespParser p{RespLimits{}};
  std::string in = "PING\nGET k\n";
  p.Feed(in.data(), in.size());
  auto cmds = ParseAll(&p);
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[1], (std::vector<std::string>{"GET", "k"}));
}

TEST(RespParser, Multibulk) {
  RespParser p{RespLimits{}};
  std::string in = "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\n10\r\n";
  p.Feed(in.data(), in.size());
  auto cmds = ParseAll(&p);
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0], (std::vector<std::string>{"SET", "k", "10"}));
}

TEST(RespParser, MultibulkEmptyArgAndBinary) {
  RespParser p{RespLimits{}};
  std::string in = "*2\r\n$0\r\n\r\n$3\r\na\rb\r\n";  // payload contains CR
  p.Feed(in.data(), in.size());
  RespCommand cmd;
  ASSERT_EQ(p.Next(&cmd), RespParser::Result::kCommand);
  ASSERT_EQ(cmd.argv.size(), 2u);
  EXPECT_EQ(cmd.argv[0], "");
  EXPECT_EQ(cmd.argv[1].size(), 3u);
}

TEST(RespParser, ZeroArgArrraySkipped) {
  RespParser p{RespLimits{}};
  std::string in = "*0\r\nPING\r\n";
  p.Feed(in.data(), in.size());
  auto cmds = ParseAll(&p);
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0][0], "PING");
}

// The core resumption property: any split of the byte stream, at every
// byte boundary, yields the identical command sequence.
TEST(RespParser, SplitAtEveryByteBoundary) {
  const std::string stream =
      "*3\r\n$3\r\nSET\r\n$3\r\nkey\r\n$5\r\n12345\r\n"
      "PING\r\n"
      "*2\r\n$4\r\nINCR\r\n$7\r\ncounter\r\n"
      "GET key\r\n";
  const std::vector<std::vector<std::string>> expect = {
      {"SET", "key", "12345"},
      {"PING"},
      {"INCR", "counter"},
      {"GET", "key"},
  };
  for (size_t split = 0; split <= stream.size(); ++split) {
    RespParser p{RespLimits{}};
    std::vector<std::vector<std::string>> got;
    RespCommand cmd;
    p.Feed(stream.data(), split);
    while (p.Next(&cmd) == RespParser::Result::kCommand) {
      got.push_back(cmd.argv);
    }
    p.Feed(stream.data() + split, stream.size() - split);
    while (p.Next(&cmd) == RespParser::Result::kCommand) {
      got.push_back(cmd.argv);
    }
    EXPECT_EQ(got, expect) << "split at byte " << split;
  }
}

// Feeding one byte at a time exercises every kNeedMore path.
TEST(RespParser, ByteAtATime) {
  const std::string stream = "*2\r\n$3\r\nGET\r\n$1\r\nk\r\nPING\r\n";
  RespParser p{RespLimits{}};
  std::vector<std::vector<std::string>> got;
  RespCommand cmd;
  for (char c : stream) {
    p.Feed(&c, 1);
    while (p.Next(&cmd) == RespParser::Result::kCommand) {
      got.push_back(cmd.argv);
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::vector<std::string>{"GET", "k"}));
  EXPECT_EQ(got[1], (std::vector<std::string>{"PING"}));
}

// ---------------------------------------------------------------------------
// RespParser limits / malformed input. Errors must be sticky.
// ---------------------------------------------------------------------------

void ExpectStickyError(const std::string& in, const RespLimits& limits) {
  RespParser p{limits};
  p.Feed(in.data(), in.size());
  RespCommand cmd;
  ASSERT_EQ(p.Next(&cmd), RespParser::Result::kError) << in;
  EXPECT_FALSE(p.error().empty());
  // Sticky: more input cannot resurrect the connection.
  p.Feed("PING\r\n", 6);
  EXPECT_EQ(p.Next(&cmd), RespParser::Result::kError);
}

TEST(RespParser, RejectsOversizedBulk) {
  RespLimits limits;
  limits.max_bulk = 16;
  ExpectStickyError("*2\r\n$3\r\nGET\r\n$17\r\n", limits);
}

// max_bulk bounds a command's arguments together: two 10-byte arguments
// overrun a 16-byte bound that each fits alone.
TEST(RespParser, RejectsOversizedCommand) {
  RespLimits limits;
  limits.max_bulk = 16;
  ExpectStickyError("*2\r\n$10\r\n0123456789\r\n$10\r\n0123456789\r\n",
                    limits);
}

TEST(RespParser, RejectsOversizedArgCount) {
  RespLimits limits;
  limits.max_args = 4;
  ExpectStickyError("*5\r\n", limits);
}

TEST(RespParser, RejectsNegativeAndGarbageCounts) {
  ExpectStickyError("*-1\r\n", RespLimits{});
  ExpectStickyError("*abc\r\n", RespLimits{});
  ExpectStickyError("*2\r\n$-5\r\n", RespLimits{});
  ExpectStickyError("*2\r\n$x\r\n", RespLimits{});
}

TEST(RespParser, RejectsMissingBulkMarker) {
  ExpectStickyError("*1\r\nPING\r\n", RespLimits{});
}

TEST(RespParser, RejectsUnterminatedBulkPayload) {
  // Payload present but not CRLF-terminated where the length says.
  ExpectStickyError("*1\r\n$4\r\nPINGxy\r\n", RespLimits{});
}

TEST(RespParser, RejectsOversizedInline) {
  RespLimits limits;
  limits.max_inline = 8;
  std::string in(64, 'A');  // no newline at all, beyond the limit
  ExpectStickyError(in, limits);
}

TEST(RespParser, OversizedMultibulkHeaderWithoutCrlf) {
  // A '*' line that never terminates must fail once past the guard.
  std::string in = "*";
  in.append(64, '1');
  ExpectStickyError(in, RespLimits{});
}

// ---------------------------------------------------------------------------
// Reply builders and client-side framing.
// ---------------------------------------------------------------------------

TEST(RespReplies, Builders) {
  std::string out;
  AppendSimple(&out, "OK");
  AppendError(&out, "ERR boom");
  AppendInteger(&out, -7);
  AppendBulk(&out, "hello");
  AppendNullBulk(&out);
  EXPECT_EQ(out, "+OK\r\n-ERR boom\r\n:-7\r\n$5\r\nhello\r\n$-1\r\n");
}

TEST(RespReplies, SkipReplyFramesEveryType) {
  std::string buf = "+OK\r\n:12\r\n$3\r\nabc\r\n$-1\r\n-ERR x\r\n*2\r\n:1\r\n:2\r\n";
  size_t pos = 0;
  std::vector<char> types;
  while (pos < buf.size()) {
    char t = 0;
    size_t next = SkipReply(buf, pos, &t);
    ASSERT_NE(next, std::string::npos);
    types.push_back(t);
    pos = next;
  }
  EXPECT_EQ(types, (std::vector<char>{'+', ':', '$', '$', '-', '*'}));
  // Partial replies are not framed.
  EXPECT_EQ(SkipReply("$5\r\nab", 0, nullptr), std::string::npos);
  EXPECT_EQ(SkipReply(":12", 0, nullptr), std::string::npos);
  EXPECT_EQ(SkipReply("*2\r\n:1\r\n", 0, nullptr), std::string::npos);
}

TEST(RespKeys, ParseU64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseU64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(ParseU64("", &v));
  EXPECT_FALSE(ParseU64("12a", &v));
  EXPECT_FALSE(ParseU64("-1", &v));
}

TEST(RespKeys, MapKeyDecimalAndHash) {
  EXPECT_EQ(MapKey("42"), 42u);
  EXPECT_EQ(MapKey("0"), 0u);
  // Non-decimal keys hash; equal strings agree, different ones (almost
  // surely) differ.
  EXPECT_EQ(MapKey("user:1"), MapKey("user:1"));
  EXPECT_NE(MapKey("user:1"), MapKey("user:2"));
}

// ---------------------------------------------------------------------------
// Loopback integration: a real server, real sockets.
// ---------------------------------------------------------------------------

/// Bytes of address space this process has mapped (/proc/self/statm).
uint64_t MappedBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  unsigned long long pages = 0;
  if (f != nullptr) {
    if (std::fscanf(f, "%llu", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  return pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions opts = {}) {
    opts.port = 0;
    server_ = std::make_unique<FasterServer>(opts);
    ASSERT_TRUE(server_->ok()) << server_->error();
  }

  UniqueFd Connect() {
    UniqueFd fd = ConnectTcp("127.0.0.1", server_->port());
    EXPECT_TRUE(fd.valid());
    return fd;
  }

  // Sends `req`, reads until `n` replies are framed, returns them raw.
  std::string Exchange(int fd, const std::string& req, size_t n) {
    EXPECT_TRUE(WriteAllFd(fd, req.data(), req.size()));
    std::string buf;
    size_t pos = 0, seen = 0;
    char tmp[4096];
    while (seen < n) {
      ssize_t got = ReadSomeFd(fd, tmp, sizeof(tmp));
      if (got <= 0) {
        ADD_FAILURE() << "connection closed after " << seen << "/" << n;
        break;
      }
      buf.append(tmp, static_cast<size_t>(got));
      for (;;) {
        size_t next = SkipReply(buf, pos, nullptr);
        if (next == std::string::npos) break;
        pos = next;
        if (++seen == n) break;
      }
    }
    return buf;
  }

  std::unique_ptr<FasterServer> server_;
};

TEST_F(NetServerTest, BasicCommands) {
  StartServer();
  UniqueFd fd = Connect();
  std::string replies = Exchange(
      fd.get(),
      "PING\r\nSET 7 41\r\nINCR 7\r\nGET 7\r\nGET 9999\r\nDEL 7\r\nGET 7\r\n",
      7);
  EXPECT_EQ(replies,
            "+PONG\r\n+OK\r\n:42\r\n$2\r\n42\r\n$-1\r\n:1\r\n$-1\r\n");
}

TEST_F(NetServerTest, MultibulkAndStringKeys) {
  StartServer();
  UniqueFd fd = Connect();
  std::string req =
      "*3\r\n$3\r\nSET\r\n$5\r\nhello\r\n$2\r\n10\r\n"
      "*2\r\n$3\r\nGET\r\n$5\r\nhello\r\n";
  std::string replies = Exchange(fd.get(), req, 2);
  EXPECT_EQ(replies, "+OK\r\n$2\r\n10\r\n");
}

// A pipeline much deeper than kBatchChunk (64) forces chunked execution;
// replies must still come back exact and in order.
TEST_F(NetServerTest, DeepPipelineOrdering) {
  StartServer();
  UniqueFd fd = Connect();
  constexpr int kOps = 500;  // > 7 chunks
  std::string req;
  std::string expect;
  for (int i = 1; i <= kOps; ++i) {
    req += "INCR deep\r\n";
    expect += ":" + std::to_string(i) + "\r\n";
  }
  std::string replies = Exchange(fd.get(), req, kOps);
  EXPECT_EQ(replies, expect);
}

// DEL forces a segment split mid-pipeline; ordering must survive, and the
// post-DEL INCR restarts from 1.
TEST_F(NetServerTest, SegmentSplitsPreserveOrder) {
  StartServer();
  UniqueFd fd = Connect();
  std::string req =
      "INCR s\r\nINCR s\r\nDEL s\r\nINCR s\r\nGET s\r\n"
      "SET s 100\r\nINCR s\r\nDEL s nosuch\r\nGET s\r\n";
  std::string replies = Exchange(fd.get(), req, 9);
  EXPECT_EQ(replies,
            ":1\r\n:2\r\n:1\r\n:1\r\n$1\r\n1\r\n"
            "+OK\r\n:101\r\n:1\r\n$-1\r\n");
}

// Interleaved INCR/GET on the same key within one pipeline: every GET
// must observe exactly the preceding INCRs (the segment-split rule).
TEST_F(NetServerTest, IncrReadInterleavingIsExact) {
  StartServer();
  UniqueFd fd = Connect();
  std::string req, expect;
  for (int i = 1; i <= 10; ++i) {
    req += "INCR x\r\nGET x\r\n";
    std::string v = std::to_string(i);
    expect += ":" + v + "\r\n$" + std::to_string(v.size()) + "\r\n" + v +
              "\r\n";
  }
  std::string replies = Exchange(fd.get(), req, 20);
  EXPECT_EQ(replies, expect);
}

// DEL counts the keys it deleted: one batch slot per key, absent and
// repeated keys included.
TEST_F(NetServerTest, DelCountsEveryKey) {
  StartServer();
  UniqueFd fd = Connect();
  std::string replies = Exchange(
      fd.get(),
      "SET a 1\r\nSET b 2\r\nSET c 3\r\nDEL a b nosuch a\r\n"
      "GET a\r\nGET b\r\nGET c\r\nDEL a b\r\nDEL c\r\n",
      9);
  EXPECT_EQ(replies,
            "+OK\r\n+OK\r\n+OK\r\n:2\r\n$-1\r\n$-1\r\n$1\r\n3\r\n"
            ":0\r\n:1\r\n");
}

// A DEL in the same pipeline as INCRs of its keys deletes after them, and
// an INCR after it starts over.
TEST_F(NetServerTest, DelAfterIncrInOnePipeline) {
  StartServer();
  UniqueFd fd = Connect();
  std::string replies = Exchange(
      fd.get(),
      "INCR p\r\nINCR p\r\nSET q 5\r\nDEL q p r\r\nGET p\r\n"
      "INCR p\r\nINCR q\r\nDEL p\r\n",
      8);
  EXPECT_EQ(replies,
            ":1\r\n:2\r\n+OK\r\n:2\r\n$-1\r\n:1\r\n:1\r\n:1\r\n");
}

TEST_F(NetServerTest, ErrorRepliesKeepPosition) {
  StartServer();
  UniqueFd fd = Connect();
  std::string req =
      "SET k notanumber\r\nBOGUS\r\nGET nope\r\nSET k 3\r\nGET k\r\n";
  std::string replies = Exchange(fd.get(), req, 5);
  EXPECT_EQ(replies,
            "-ERR value is not an integer or out of range\r\n"
            "-ERR unknown command 'BOGUS', or wrong number of arguments\r\n"
            "$-1\r\n+OK\r\n$1\r\n3\r\n");
}

TEST_F(NetServerTest, ProtocolErrorClosesConnection) {
  StartServer();
  UniqueFd fd = Connect();
  std::string req = "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*bogus\r\n";
  EXPECT_TRUE(WriteAllFd(fd.get(), req.data(), req.size()));
  // The valid command is answered, the error is reported, then EOF.
  std::string buf;
  char tmp[4096];
  for (;;) {
    ssize_t got = ReadSomeFd(fd.get(), tmp, sizeof(tmp));
    if (got <= 0) break;
    buf.append(tmp, static_cast<size_t>(got));
  }
  EXPECT_EQ(buf,
            "$-1\r\n-ERR Protocol error: invalid multibulk length\r\n");
}

TEST_F(NetServerTest, PipelineBeyondMaxCarriesOver) {
  ServerOptions opts;
  opts.max_pipeline = 8;  // force multi-turn carry-over
  StartServer(opts);
  UniqueFd fd = Connect();
  constexpr int kOps = 50;
  std::string req, expect;
  for (int i = 1; i <= kOps; ++i) {
    req += "INCR c\r\n";
    expect += ":" + std::to_string(i) + "\r\n";
  }
  std::string replies = Exchange(fd.get(), req, kOps);
  EXPECT_EQ(replies, expect);
}

TEST_F(NetServerTest, TwoConnectionsShareTheStore) {
  StartServer();
  UniqueFd a = Connect();
  UniqueFd b = Connect();
  EXPECT_EQ(Exchange(a.get(), "SET shared 5\r\n", 1), "+OK\r\n");
  EXPECT_EQ(Exchange(b.get(), "GET shared\r\n", 1), "$1\r\n5\r\n");
  EXPECT_EQ(Exchange(b.get(), "INCR shared\r\n", 1), ":6\r\n");
  EXPECT_EQ(Exchange(a.get(), "GET shared\r\n", 1), "$1\r\n6\r\n");
}

TEST_F(NetServerTest, CommandsProcessedCountsAllBuilds) {
  StartServer();
  UniqueFd fd = Connect();
  Exchange(fd.get(), "PING\r\nSET 1 1\r\nGET 1\r\n", 3);
  EXPECT_GE(server_->commands_processed(), 3u);
}

// Tiny memory budget: reads can go kPending through the I/O path; the
// completion-callback plumbing must still produce exact replies.
TEST_F(NetServerTest, SmallMemoryPendingReads) {
  ServerOptions opts;
  opts.table_size = 1 << 10;
  opts.log_memory_bytes = 1 << 16;  // two pages: most of the log is cold
  StartServer(opts);
  UniqueFd fd = Connect();
  constexpr int kKeys = 300;
  std::string req;
  for (int i = 0; i < kKeys; ++i) {
    req += "SET " + std::to_string(i) + " " + std::to_string(i + 1000) +
           "\r\n";
  }
  Exchange(fd.get(), req, kKeys);
  // Read them all back (early keys now live on "disk").
  req.clear();
  std::string expect;
  for (int i = 0; i < kKeys; ++i) {
    req += "GET " + std::to_string(i) + "\r\n";
    std::string v = std::to_string(i + 1000);
    expect += "$" + std::to_string(v.size()) + "\r\n" + v + "\r\n";
  }
  std::string replies = Exchange(fd.get(), req, kKeys);
  EXPECT_EQ(replies, expect);
}

// INCRs of keys on storage go pending; each reply is still the value the
// RMW wrote, delivered when it completes, and a GET of the key later in
// the pipeline sees it (the same-key segment split).
TEST_F(NetServerTest, PendingIncrsReplyTheirValue) {
  ServerOptions opts;
  opts.table_size = 1 << 16;
  opts.log_memory_bytes = 1 << 16;  // the two-page minimum: ~350k records
  StartServer(opts);
  constexpr uint64_t kKeys = 400000;  // keys below ~50k spill to storage
  {
    FasterServer::Store::Session session{server_->store()};
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(server_->store().Upsert(k, k * 10), Status::kOk);
    }
  }
  UniqueFd fd = Connect();
  std::string req, expect;
  for (int i = 0; i < 300; ++i) {
    std::string v = std::to_string(i * 10 + 1);
    req += "INCR " + std::to_string(i) + "\r\nGET " + std::to_string(i) +
           "\r\n";
    expect += ":" + v + "\r\n$" + std::to_string(v.size()) + "\r\n" + v +
              "\r\n";
  }
  EXPECT_EQ(Exchange(fd.get(), req, 600), expect);
  EXPECT_GT(server_->store().counters().Sum(obs::StoreCounter::kRmwStable),
            0u);
}

// A store that cannot map memory for a new key's index entry refuses the
// SET with Redis's -OOM (here under an address-space limit too tight for
// the next 4 MB overflow segment); every key it holds still reads back,
// and the refused key is taken once the limit is lifted.
TEST_F(NetServerTest, UnmappableIndexMemoryRepliesOom) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan allocates shadow state for every new atomic";
#endif
  ServerOptions opts;
  // Overflow segments of 64 << s buckets: 300k keys claim about 41k
  // buckets, inside the 2 MB segment 9 ([32704, 65472)); the next is 4 MB.
  opts.table_size = 4096;
  StartServer(opts);
  UniqueFd fd = Connect();
  constexpr int kBatch = 1000;
  constexpr int kMaxKeys = 800000;
  std::vector<int> stored;
  stored.reserve(kMaxKeys);
  int refused = -1;
  std::string refusal;
  auto set_batch = [&](int base) {
    std::string req;
    for (int i = base; i < base + kBatch; ++i) {
      req += "SET " + std::to_string(i) + " " + std::to_string(i + 7) +
             "\r\n";
    }
    std::string replies = Exchange(fd.get(), req, kBatch);
    size_t pos = 0;
    for (int i = base; i < base + kBatch; ++i) {
      size_t next = SkipReply(replies, pos, nullptr);
      ASSERT_NE(next, std::string::npos);
      if (replies.compare(pos, next - pos, "+OK\r\n") == 0) {
        stored.push_back(i);
      } else if (refused < 0) {
        refused = i;
        refusal = replies.substr(pos, next - pos);
      }
      pos = next;
    }
  };
  int base = 0;
  for (; base < 300000; base += kBatch) set_batch(base);
  ASSERT_EQ(refused, -1) << refusal;

  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_AS, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = MappedBytes() + (uint64_t{1} << 20);
  if (saved.rlim_cur != RLIM_INFINITY && saved.rlim_cur < tight.rlim_cur) {
    GTEST_SKIP() << "address-space limit already tighter than the test's";
  }
  ASSERT_EQ(::setrlimit(RLIMIT_AS, &tight), 0);
  for (; refused < 0 && base < kMaxKeys; base += kBatch) set_batch(base);
  ASSERT_EQ(::setrlimit(RLIMIT_AS, &saved), 0);

  ASSERT_GE(refused, 0) << "no SET was refused";
  EXPECT_EQ(refusal.rfind("-OOM ", 0), 0u) << refusal;
  for (size_t at = 0; at < stored.size(); at += 10000) {
    std::string req, expect;
    size_t end = std::min(stored.size(), at + 10000);
    for (size_t k = at; k < end; ++k) {
      std::string v = std::to_string(stored[k] + 7);
      req += "GET " + std::to_string(stored[k]) + "\r\n";
      expect += "$" + std::to_string(v.size()) + "\r\n" + v + "\r\n";
    }
    ASSERT_EQ(Exchange(fd.get(), req, end - at), expect);
  }
  std::string key = std::to_string(refused);
  EXPECT_EQ(Exchange(fd.get(), "SET " + key + " 1\r\nGET " + key + "\r\n",
                     2),
            "+OK\r\n$1\r\n1\r\n");
}

TEST_F(NetServerTest, ShutdownClosesConnectionsAndIsIdempotent) {
  StartServer();
  UniqueFd fd = Connect();
  EXPECT_EQ(Exchange(fd.get(), "PING\r\n", 1), "+PONG\r\n");
  server_->Shutdown();
  server_->Shutdown();  // idempotent
  // The drained server has closed the connection: EOF (or reset).
  char tmp[16];
  ssize_t got = ReadSomeFd(fd.get(), tmp, sizeof(tmp));
  EXPECT_LE(got, 0);
  // And nothing is listening anymore.
  UniqueFd again = ConnectTcp("127.0.0.1", server_->port());
  EXPECT_FALSE(again.valid());
}

// SLOWLOG speaks in every build (the ring is always compiled; without
// FASTER_STATS the instrumentation just never feeds it).
TEST_F(NetServerTest, SlowlogCommands) {
  ServerOptions opts;
  opts.slowlog_threshold_us = 1000000;  // armed, nothing should trip it
  StartServer(opts);
  UniqueFd fd = Connect();

  EXPECT_EQ(Exchange(fd.get(), "SLOWLOG RESET\r\n", 1), "+OK\r\n");
  EXPECT_EQ(Exchange(fd.get(), "SLOWLOG LEN\r\n", 1), ":0\r\n");
  EXPECT_EQ(Exchange(fd.get(), "SLOWLOG GET\r\n", 1), "*0\r\n");
  std::string err = Exchange(fd.get(), "SLOWLOG BOGUS\r\n", 1);
  EXPECT_EQ(err.rfind("-ERR", 0), 0u) << err;

  if constexpr (obs::kStatsEnabled) {
    // Drop the threshold to zero (shared process: the server reads the
    // same global ring) — now every command's store ops are "slow".
    obs::GlobalSlowLog().set_threshold_ns(0);
    Exchange(fd.get(), "SET 5 1\r\nGET 5\r\nINCR 5\r\n", 3);
    std::string len = Exchange(fd.get(), "SLOWLOG LEN\r\n", 1);
    ASSERT_EQ(len[0], ':');
    EXPECT_NE(len, ":0\r\n");
    // GET returns id / timestamp / duration / details per entry.
    std::string got = Exchange(fd.get(), "SLOWLOG GET 1\r\n", 1);
    EXPECT_EQ(got.rfind("*1\r\n*4\r\n:", 0), 0u) << got;
    EXPECT_NE(got.find("op="), std::string::npos);
    EXPECT_NE(got.find("execute_us="), std::string::npos);
    EXPECT_EQ(Exchange(fd.get(), "SLOWLOG RESET\r\n", 1), "+OK\r\n");
    EXPECT_EQ(Exchange(fd.get(), "SLOWLOG LEN\r\n", 1), ":0\r\n");
  }
  obs::GlobalSlowLog().set_threshold_ns(obs::SlowLog::kDisabled);
}

// PERF speaks in every build too: arming always works, GET always returns
// the header; per-stage lines only appear when the stats build actually
// attributes scopes. Counters are hidden behind the availability mask, so
// this passes identically on hosts where perf_event_open is refused.
TEST_F(NetServerTest, PerfCommands) {
  StartServer();
  UniqueFd fd = Connect();

  obs::GlobalPerf().Arm(false);
  obs::GlobalPerf().Reset();

  // Disarmed header via GET (array of bulk strings; first is the header).
  std::string got = Exchange(fd.get(), "PERF GET\r\n", 1);
  EXPECT_EQ(got.rfind("*", 0), 0u) << got;
  EXPECT_NE(got.find("armed=0"), std::string::npos) << got;

  EXPECT_EQ(Exchange(fd.get(), "PERF ENABLE\r\n", 1), "+OK\r\n");
  // Store traffic while armed: the batch pipeline's stage scopes run.
  Exchange(fd.get(), "SET 7 1\r\nGET 7\r\nINCR 7\r\n", 3);
  got = Exchange(fd.get(), "PERF GET\r\n", 1);
  EXPECT_NE(got.find("armed=1"), std::string::npos) << got;
  EXPECT_NE(got.find("truncated="), std::string::npos) << got;
  if constexpr (obs::kStatsEnabled) {
    EXPECT_NE(got.find("stage=execute scopes="), std::string::npos) << got;
  }

  EXPECT_EQ(Exchange(fd.get(), "PERF RESET\r\n", 1), "+OK\r\n");
  got = Exchange(fd.get(), "PERF GET\r\n", 1);
  if constexpr (obs::kStatsEnabled) {
    // Nothing survives the reset but the GET's own turn: its parse and
    // flush segments (the header plus those two stage lines).
    EXPECT_EQ(got.rfind("*3\r\n", 0), 0u) << got;
    EXPECT_NE(got.find("stage=net_parse scopes="), std::string::npos) << got;
    EXPECT_NE(got.find("stage=net_flush scopes="), std::string::npos) << got;
  } else {
    EXPECT_EQ(got.find("stage="), std::string::npos) << got;
  }
  EXPECT_EQ(Exchange(fd.get(), "PERF DISABLE\r\n", 1), "+OK\r\n");
  got = Exchange(fd.get(), "PERF GET\r\n", 1);
  EXPECT_NE(got.find("armed=0"), std::string::npos) << got;

  std::string err = Exchange(fd.get(), "PERF BOGUS\r\n", 1);
  EXPECT_EQ(err.rfind("-ERR", 0), 0u) << err;
  err = Exchange(fd.get(), "PERF\r\n", 1);
  EXPECT_EQ(err.rfind("-ERR", 0), 0u) << err;
  obs::GlobalPerf().Reset();
}

// Raw value of the INFO field `name`, up to its CRLF ("" if absent).
std::string InfoValue(const std::string& info, const std::string& name) {
  size_t at = info.find("\n" + name + ":");
  if (at == std::string::npos) return "";
  at += name.size() + 2;
  return info.substr(at, info.find("\r\n", at) - at);
}

bool IsDecimal(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

// Value of the numeric INFO field `name` (0 if absent).
uint64_t InfoField(const std::string& info, const std::string& name) {
  size_t at = info.find("\n" + name + ":");
  if (at == std::string::npos) return 0;
  return std::strtoull(info.c_str() + at + name.size() + 2, nullptr, 10);
}

TEST_F(NetServerTest, InfoIsSectioned) {
  StartServer();
  UniqueFd fd = Connect();
  Exchange(fd.get(), "SET 1 1\r\n", 1);
  std::string info = Exchange(fd.get(), "INFO\r\n", 1);
  for (const char* needle :
       {"# Server", "# Clients", "# Stats", "# Log", "# Index", "# Memory",
        "# Epoch", "# Slowlog", "# Perf", "connected_clients:",
        "total_commands_processed:", "log_tail_address:", "epoch_current:",
        "slowlog_enabled:", "slowlog_dropped:", "build_git_sha:",
        "build_flags:", "perf_enabled:", "perf_counter_mask:"}) {
    EXPECT_NE(info.find(needle), std::string::npos) << needle;
  }
  // # Memory: the budgets are exact, and the budget is reserved rather
  // than resident, so RSS is positive but need not cover it.
  EXPECT_EQ(InfoField(info, "log_budget_bytes"),
            server_->store().hlog().buffer_pages() * Address::kPageSize);
  EXPECT_EQ(InfoField(info, "index_bytes"),
            server_->store().index().size() * sizeof(HashBucket));
  EXPECT_GT(InfoField(info, "rss_bytes"), 0u);
  // Huge-page backing: two flags, the kernel's THP mode, and a byte count.
  const std::string thp = InfoValue(info, "thp_enabled");
  EXPECT_TRUE(thp == "always" || thp == "madvise" || thp == "never" ||
              thp == "unsupported")
      << thp;
  for (const char* flag : {"log_huge", "index_huge"}) {
    const std::string v = InfoValue(info, flag);
    EXPECT_TRUE(v == "0" || v == "1") << flag << "=" << v;
    if (thp == "never" || thp == "unsupported") {
      EXPECT_EQ(v, "0") << flag;
    }
  }
  EXPECT_TRUE(IsDecimal(InfoValue(info, "anon_huge_bytes")))
      << InfoValue(info, "anon_huge_bytes");
}

// Value of the first numeric JSON field `key` at or after `from`.
uint64_t JsonField(const std::string& json, const std::string& key,
                   size_t from = 0) {
  size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

// INFO's # Log and # Epoch sections and /debug/log and /debug/epochs
// render from one view of the store, so on a quiescent server they agree
// field for field.
TEST_F(NetServerTest, InfoMatchesDebugLogAndEpochs) {
  StartServer();
  UniqueFd fd = Connect();
  Exchange(fd.get(), "SET 1 1\r\nINCR 2\r\n", 2);
  const char* kInfoFields[] = {
      "log_begin_address", "log_head_address", "log_safe_read_only_address",
      "log_read_only_address", "log_tail_address", "epoch_current",
      "epoch_safe", "epoch_protected_threads"};
  auto info_fields = [&] {
    std::string info = Exchange(fd.get(), "INFO\r\n", 1);
    std::vector<uint64_t> v;
    for (const char* f : kInfoFields) {
      EXPECT_TRUE(IsDecimal(InfoValue(info, f))) << f;
      v.push_back(InfoField(info, f));
    }
    return v;
  };
  // Workers refresh their epochs while idle, which may still move the
  // safe epoch: take the renderings between two equal INFO replies.
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::vector<uint64_t> before = info_fields();
    const obs::StoreView view = server_->store().view();
    std::string log = obs::DebugLogJson(view);
    std::string epochs = obs::DebugEpochsJson(view);
    if (info_fields() != before) continue;
    size_t main_log = log.find("\"log\":");
    ASSERT_NE(main_log, std::string::npos) << log;
    std::vector<uint64_t> debug = {
        JsonField(log, "begin", main_log),
        JsonField(log, "head", main_log),
        JsonField(log, "safe_read_only", main_log),
        JsonField(log, "read_only", main_log),
        JsonField(log, "tail", main_log),
        JsonField(epochs, "current_epoch"),
        JsonField(epochs, "safe_epoch"),
        JsonField(epochs, "protected_threads")};
    for (size_t i = 0; i < debug.size(); ++i) {
      EXPECT_EQ(before[i], debug[i]) << kInfoFields[i] << "\n" << log
                                     << epochs;
    }
    EXPECT_GT(before[4], 0u);  // log_tail_address
    return;
  }
  FAIL() << "INFO never settled";
}

TEST_F(NetServerTest, DebugConnectionsTracksLiveConnections) {
  StartServer();
  std::string empty = server_->DebugConnectionsJson();
  EXPECT_TRUE(MiniJson::Valid(empty)) << empty;
  EXPECT_NE(empty.find("\"open\":0"), std::string::npos) << empty;

  UniqueFd a = Connect();
  UniqueFd b = Connect();
  // Traffic both proves liveness and populates the per-slot counters.
  EXPECT_EQ(Exchange(a.get(), "PING\r\n", 1), "+PONG\r\n");
  EXPECT_EQ(Exchange(b.get(), "PING\r\nPING\r\n", 2), "+PONG\r\n+PONG\r\n");
  std::string body = server_->DebugConnectionsJson();
  EXPECT_TRUE(MiniJson::Valid(body)) << body;
  EXPECT_NE(body.find("\"open\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"bytes_in\":"), std::string::npos);
  EXPECT_NE(body.find("\"commands\":"), std::string::npos);

  a.reset();
  b.reset();
  // Slot release happens on the worker's next event-loop turn; poll.
  for (int i = 0; i < 200; ++i) {
    body = server_->DebugConnectionsJson();
    if (body.find("\"open\":0") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(body.find("\"open\":0"), std::string::npos) << body;
}

// The worker serving a connection, from /debug/connections: the entry of
// the one fd not in `seen`, once the connection's first reply is back.
uint32_t NewConnectionWorker(const FasterServer& server,
                             std::vector<std::string>* seen) {
  std::string body = server.DebugConnectionsJson();
  for (size_t at = body.find("{\"fd\":"); at != std::string::npos;
       at = body.find("{\"fd\":", at + 1)) {
    std::string fd = body.substr(at + 6, body.find(',', at) - at - 6);
    if (std::find(seen->begin(), seen->end(), fd) != seen->end()) continue;
    seen->push_back(fd);
    size_t w = body.find("\"worker\":", at) + 9;
    return static_cast<uint32_t>(std::strtoul(body.c_str() + w, nullptr, 10));
  }
  ADD_FAILURE() << "no new connection in " << body;
  return UINT32_MAX;
}

// Two connections on distinct workers pipeline INCRs of one key: every
// reply is the value its own increment produced, so together they are
// exactly 1..N, each once.
TEST_F(NetServerTest, SharedKeyIncrAcrossWorkersIsExact) {
  ServerOptions opts;
  opts.threads = 2;
  StartServer(opts);
  // SO_REUSEPORT spreads connections by hash: connect until one lands on
  // each worker (the strays stay open, so their fds are not reused).
  std::vector<UniqueFd> conns;
  std::vector<std::string> seen;
  int on_worker[2] = {-1, -1};
  for (int tries = 0; tries < 64 && (on_worker[0] < 0 || on_worker[1] < 0);
       ++tries) {
    conns.push_back(Connect());
    ASSERT_EQ(Exchange(conns.back().get(), "PING\r\n", 1), "+PONG\r\n");
    uint32_t w = NewConnectionWorker(*server_, &seen);
    ASSERT_LT(w, 2u);
    if (on_worker[w] < 0) on_worker[w] = static_cast<int>(conns.size() - 1);
  }
  ASSERT_TRUE(on_worker[0] >= 0 && on_worker[1] >= 0);

  constexpr int kPipelines = 3000;
  constexpr int kDepth = 16;
  std::string req;
  for (int i = 0; i < kDepth; ++i) req += "INCR shared\r\n";
  std::vector<long long> replies[2];
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      int fd = conns[static_cast<size_t>(on_worker[c])].get();
      for (int p = 0; p < kPipelines; ++p) {
        std::string buf = Exchange(fd, req, kDepth);
        for (size_t at = 0; at < buf.size();) {
          size_t eol = buf.find("\r\n", at);
          if (buf[at] != ':' || eol == std::string::npos) {
            ADD_FAILURE() << "bad reply: " << buf.substr(at);
            return;
          }
          replies[c].push_back(std::stoll(buf.substr(at + 1, eol - at - 1)));
          at = eol + 2;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  std::vector<long long> all = replies[0];
  all.insert(all.end(), replies[1].begin(), replies[1].end());
  ASSERT_EQ(all.size(), size_t{2} * kPipelines * kDepth);
  std::sort(all.begin(), all.end());
  size_t duplicates = 0;
  for (size_t i = 1; i < all.size(); ++i) duplicates += all[i] == all[i - 1];
  EXPECT_EQ(duplicates, 0u);
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<long long>(i + 1)) << "at " << i;
  }
}

TEST_F(NetServerTest, ConcurrentClients) {
  ServerOptions opts;
  opts.threads = 2;
  StartServer(opts);
  constexpr int kClients = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};  // order: relaxed — test-local tally
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      UniqueFd fd = ConnectTcp("127.0.0.1", server_->port());
      if (!fd.valid()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::string key = "k" + std::to_string(c);  // private per client
      for (int r = 1; r <= kRounds; ++r) {
        std::string req = "INCR " + key + "\r\n";
        if (!WriteAllFd(fd.get(), req.data(), req.size())) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        std::string buf;
        char tmp[256];
        while (SkipReply(buf, 0, nullptr) == std::string::npos) {
          ssize_t got = ReadSomeFd(fd.get(), tmp, sizeof(tmp));
          if (got <= 0) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          buf.append(tmp, static_cast<size_t>(got));
        }
        if (buf != ":" + std::to_string(r) + "\r\n") {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_GE(server_->commands_processed(),
            static_cast<uint64_t>(kClients * kRounds));
}

}  // namespace
}  // namespace net
}  // namespace faster
