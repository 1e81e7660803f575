// Backed (resumable) stream halves and the durable session journal: offset
// bookkeeping, replay overlap skipping, protocol-violation detection, and
// byte-exact state round-trips through util/durable.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "net/backed_stream.hpp"
#include "net/session.hpp"
#include "util/durable/durable_file.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;
using net::BackedReader;
using net::BackedWriter;
using net::ProtocolError;
using net::SessionState;

TEST(NetBacked, WriterRetainsUnackedAndDropsAcked) {
  BackedWriter writer;
  writer.append("hello ");
  writer.append("world");
  EXPECT_EQ(writer.write_seq(), 11u);
  EXPECT_EQ(writer.acked(), 0u);
  EXPECT_EQ(writer.unacked(), "hello world");
  EXPECT_EQ(writer.from(6), "world");

  writer.ack(6);
  EXPECT_EQ(writer.acked(), 6u);
  EXPECT_EQ(writer.unacked(), "world");
  EXPECT_EQ(writer.from(6), "world");
  EXPECT_EQ(writer.from(11), "");

  writer.ack(3);  // stale ack: ignored, not an error
  EXPECT_EQ(writer.acked(), 6u);

  EXPECT_THROW(writer.ack(12), ProtocolError);   // beyond write_seq
  EXPECT_THROW(writer.from(5), ProtocolError);   // below the retained window
  EXPECT_THROW(writer.from(12), ProtocolError);  // beyond write_seq
}

TEST(NetBacked, WriterRestoreReproducesWindow) {
  BackedWriter writer;
  writer.restore(100, "tail");
  EXPECT_EQ(writer.acked(), 100u);
  EXPECT_EQ(writer.write_seq(), 104u);
  EXPECT_EQ(writer.from(102), "il");
}

TEST(NetBacked, ReaderSkipsReplayOverlapByteExactly) {
  BackedReader reader;
  EXPECT_EQ(reader.offer(0, "abcdef"), 6u);
  EXPECT_EQ(reader.inbox(), "abcdef");

  // Pure replay: entirely below what we already hold.
  EXPECT_EQ(reader.offer(0, "abcdef"), 0u);
  EXPECT_EQ(reader.offer(2, "cd"), 0u);
  EXPECT_EQ(reader.inbox(), "abcdef");

  // Partial overlap: only the novel suffix lands.
  EXPECT_EQ(reader.offer(4, "efGHI"), 3u);
  EXPECT_EQ(reader.inbox(), "abcdefGHI");

  // A gap would mean the in-order transport skipped bytes: impossible
  // unless durable state is wrong, so it must throw.
  EXPECT_THROW(reader.offer(100, "zz"), ProtocolError);
}

TEST(NetBacked, ReaderConsumeAdvancesDurableSeq) {
  BackedReader reader;
  reader.offer(0, "0123456789");
  reader.consume(4);
  EXPECT_EQ(reader.read_seq(), 4u);
  EXPECT_EQ(reader.inbox(), "456789");

  // Offers are keyed by absolute offsets, so replay after consume still
  // dedupes correctly.
  EXPECT_EQ(reader.offer(2, "23456789AB"), 2u);
  EXPECT_EQ(reader.inbox(), "456789AB");

  EXPECT_THROW(reader.consume(100), ProtocolError);

  reader.clear_inbox();
  EXPECT_EQ(reader.read_seq(), 4u);
  EXPECT_EQ(reader.inbox(), "");
}

TEST(NetBacked, SessionStateRoundTripsThroughDurableFile) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("net_session_roundtrip.json");
  std::remove(path.c_str());

  SessionState state;
  state.session_id = "client-7";
  state.fingerprint = "fp-abc";
  state.write_acked = (1ull << 60) + 17;  // force the >2^53 string encoding
  state.write_unacked = std::string("\x00\x01\xFF binary \n bytes", 18);
  state.read_seq = 42;
  util::Json::Object app;
  app["report"] = util::Json(std::string("partial"));
  state.app = util::Json(std::move(app));

  net::save_session_state(path, state);
  auto loaded = net::load_session_state(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->session_id, state.session_id);
  EXPECT_EQ(loaded->fingerprint, state.fingerprint);
  EXPECT_EQ(loaded->write_acked, state.write_acked);
  EXPECT_EQ(loaded->write_unacked, state.write_unacked);
  EXPECT_EQ(loaded->read_seq, state.read_seq);
  EXPECT_EQ(loaded->app.at("report").as_string(), "partial");
  std::remove(path.c_str());
}

TEST(NetBacked, MissingSessionIsNulloptCorruptSessionThrows) {
  const test::ScratchDir scratch;
  EXPECT_FALSE(
      net::load_session_state(scratch.file("net_session_missing.json")).has_value());

  const std::string path = scratch.file("net_session_corrupt.json");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a durable envelope", f);
    std::fclose(f);
  }
  EXPECT_THROW(net::load_session_state(path),
               util::durable::CheckpointCorruptError);
  std::remove(path.c_str());
}

TEST(NetBacked, SessionIdValidation) {
  EXPECT_TRUE(net::valid_session_id("client-1"));
  EXPECT_TRUE(net::valid_session_id("A_b.C-9"));
  EXPECT_FALSE(net::valid_session_id(""));
  EXPECT_FALSE(net::valid_session_id(".hidden"));
  EXPECT_FALSE(net::valid_session_id("has/slash"));
  EXPECT_FALSE(net::valid_session_id("has space"));
  EXPECT_FALSE(net::valid_session_id(std::string(65, 'a')));
}

}  // namespace
