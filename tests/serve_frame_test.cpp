// Frame-level fuzzing of the qcongestd wire protocol: round-trips, split
// delivery, and the hardening contract — truncated, oversized, and
// bit-flipped frames must poison the parse with a structured error, never
// desynchronize, never leak state across reader instances (= connections).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/serve/frame.hpp"
#include "src/util/rng.hpp"

namespace qcongest::serve {
namespace {

Frame expect_frame(FrameReader& reader) {
  Frame frame;
  EXPECT_EQ(reader.next(&frame), FrameReader::Result::kFrame);
  return frame;
}

TEST(ServeFrame, RoundTripsPayloads) {
  FrameReader reader;
  // sizeof - 1: the payload keeps its embedded NUL and 0xFF bytes but not
  // the literal's terminator.
  const char binary[] = "\x00\xff\n binary \x07";
  const std::string payloads[] = {"", "x", std::string(1000, 'q'),
                                  std::string(binary, sizeof(binary) - 1)};
  for (const std::string& payload : payloads) {
    reader.feed(encode_frame(FrameType::kSubmit, payload));
  }
  for (const std::string& payload : payloads) {
    Frame frame = expect_frame(reader);
    EXPECT_EQ(frame.type, FrameType::kSubmit);
    EXPECT_EQ(frame.payload, payload);
  }
  Frame frame;
  EXPECT_EQ(reader.next(&frame), FrameReader::Result::kNeedMore);
  EXPECT_FALSE(reader.poisoned());
  EXPECT_EQ(reader.frames_parsed(), 4u);
}

TEST(ServeFrame, ParsesByteAtATime) {
  // TCP is a byte stream: frames must reassemble from any fragmentation.
  const std::string wire = encode_frame(FrameType::kPing, "liveness probe") +
                           encode_frame(FrameType::kShutdown, "");
  FrameReader reader;
  std::vector<Frame> frames;
  for (char byte : wire) {
    reader.feed(std::string_view(&byte, 1));
    Frame frame;
    while (reader.next(&frame) == FrameReader::Result::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kPing);
  EXPECT_EQ(frames[0].payload, "liveness probe");
  EXPECT_EQ(frames[1].type, FrameType::kShutdown);
  EXPECT_TRUE(frames[1].payload.empty());
}

TEST(ServeFrame, RejectsBadMagic) {
  std::string wire = encode_frame(FrameType::kSubmit, "id=j\napp=bfs\n");
  wire[0] ^= 0x40;
  FrameReader reader;
  reader.feed(wire);
  Frame frame;
  EXPECT_EQ(reader.next(&frame), FrameReader::Result::kError);
  EXPECT_TRUE(reader.poisoned());
  EXPECT_NE(reader.error().find("magic"), std::string::npos) << reader.error();
}

TEST(ServeFrame, RejectsBadVersion) {
  std::string wire = encode_frame(FrameType::kSubmit, "x");
  wire[2] = 99;
  FrameReader reader;
  reader.feed(wire);
  Frame frame;
  EXPECT_EQ(reader.next(&frame), FrameReader::Result::kError);
  EXPECT_NE(reader.error().find("version"), std::string::npos) << reader.error();
}

TEST(ServeFrame, RejectsUnknownType) {
  std::string wire = encode_frame(FrameType::kSubmit, "x");
  wire[3] = 0;  // below every known type
  FrameReader reader;
  reader.feed(wire);
  Frame frame;
  EXPECT_EQ(reader.next(&frame), FrameReader::Result::kError);
  EXPECT_NE(reader.error().find("type"), std::string::npos) << reader.error();

  std::string wire2 = encode_frame(FrameType::kSubmit, "x");
  wire2[3] = static_cast<char>(200);
  FrameReader reader2;
  reader2.feed(wire2);
  EXPECT_EQ(reader2.next(&frame), FrameReader::Result::kError);
}

TEST(ServeFrame, RejectsOversizedLengthFromHeaderAlone) {
  // An oversized length must be rejected from the 8 header bytes, before
  // any payload is buffered — the peer cannot make the server allocate.
  FrameReader reader(/*max_payload=*/1024);
  std::string header = encode_frame(FrameType::kSubmit, "");
  header[4] = '\xff';  // length = huge (little-endian u32)
  header[5] = '\xff';
  header[6] = '\xff';
  header[7] = '\x0f';
  reader.feed(header);
  Frame frame;
  EXPECT_EQ(reader.next(&frame), FrameReader::Result::kError);
  EXPECT_NE(reader.error().find("oversized"), std::string::npos)
      << reader.error();
}

TEST(ServeFrame, PayloadAtTheCapIsAccepted) {
  FrameReader reader(/*max_payload=*/64);
  reader.feed(encode_frame(FrameType::kSubmit, std::string(64, 'a')));
  Frame frame = expect_frame(reader);
  EXPECT_EQ(frame.payload.size(), 64u);

  FrameReader reader2(/*max_payload=*/64);
  reader2.feed(encode_frame(FrameType::kSubmit, std::string(65, 'a')));
  EXPECT_EQ(reader2.next(&frame), FrameReader::Result::kError);
}

TEST(ServeFrame, TruncationIsAnErrorOnlyAtEndOfStream) {
  const std::string wire = encode_frame(FrameType::kSubmit, "0123456789");
  // Cut everywhere: mid-header and mid-payload. While the stream is open a
  // partial frame is just kNeedMore; once it ends, it is a truncation error
  // — but a cut on a clean frame boundary is a clean close.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameReader reader;
    reader.feed(std::string_view(wire).substr(0, cut));
    Frame frame;
    EXPECT_EQ(reader.next(&frame), FrameReader::Result::kNeedMore)
        << "cut=" << cut;
    reader.finish();
    if (cut == 0) {
      EXPECT_EQ(reader.next(&frame), FrameReader::Result::kNeedMore);
      EXPECT_FALSE(reader.poisoned());
    } else {
      EXPECT_EQ(reader.next(&frame), FrameReader::Result::kError)
          << "cut=" << cut;
      EXPECT_NE(reader.error().find("truncated"), std::string::npos)
          << reader.error();
    }
  }
}

TEST(ServeFrame, PoisonIsPermanent) {
  FrameReader reader;
  std::string bad = encode_frame(FrameType::kPing, "x");
  bad[0] = 0;
  reader.feed(bad);
  Frame frame;
  EXPECT_EQ(reader.next(&frame), FrameReader::Result::kError);
  // Even a pristine frame afterwards must not resurrect the stream: there
  // is no trustworthy resynchronization point after a framing error.
  reader.feed(encode_frame(FrameType::kPing, "clean"));
  EXPECT_EQ(reader.next(&frame), FrameReader::Result::kError);
  EXPECT_EQ(reader.frames_parsed(), 0u);
}

TEST(ServeFrame, BitFlipFuzz) {
  // Flip every bit of the header and a sample of payload bits, one at a
  // time. The reader must always terminate with either a clean parse or a
  // structured error — never crash, hang, or mis-frame the *second* frame
  // when the flip lands in the first frame's payload bytes.
  const std::string first = encode_frame(FrameType::kSubmit, "id=a\napp=bfs\n");
  const std::string second = encode_frame(FrameType::kPing, "tail");
  const std::string wire = first + second;
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::string fuzzed = wire;
    fuzzed[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    FrameReader reader;
    reader.feed(fuzzed);
    reader.finish();
    Frame frame;
    std::size_t parsed = 0;
    FrameReader::Result result;
    while ((result = reader.next(&frame)) == FrameReader::Result::kFrame) {
      ++parsed;
      ASSERT_LE(parsed, 2u) << "reader invented frames at bit " << bit;
    }
    if (result == FrameReader::Result::kError) {
      EXPECT_FALSE(reader.error().empty()) << "bit " << bit;
    } else {
      // A flip confined to payload bytes parses fine — both frames intact.
      EXPECT_EQ(parsed, 2u) << "bit " << bit;
    }
  }
}

TEST(ServeFrame, RandomGarbageNeverParsesQuietly) {
  // Seeded garbage streams: the reader must reject (or keep waiting on) all
  // of them without ever producing a frame with the valid magic absent.
  util::Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const std::size_t len = 1 + rng.index(64);
    garbage.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.index(256)));
    }
    FrameReader reader;
    reader.feed(garbage);
    reader.finish();
    Frame frame;
    std::size_t parsed = 0;
    while (reader.next(&frame) == FrameReader::Result::kFrame) {
      ++parsed;
      // Parsing garbage as a frame is only legitimate if the garbage
      // really was a well-formed frame; spot-check the invariants.
      EXPECT_TRUE(frame_type_known(static_cast<std::uint8_t>(frame.type)));
      ASSERT_LE(parsed, 8u);
    }
  }
}

TEST(ServeFrame, OneByteFeedsMatchBulkFeedsOnFuzzedStreams) {
  // The reactor reads whatever the kernel hands it — one byte, a half
  // header, three frames at once. The incremental parser must be a pure
  // function of the byte stream: seeded random frame sequences (sometimes
  // with a corrupted byte) parsed byte-at-a-time must agree exactly with
  // the same stream parsed in one bulk feed — same frames, same payloads,
  // same error, same counters.
  util::Rng rng(20260808);
  const FrameType types[] = {FrameType::kSubmit, FrameType::kPing,
                             FrameType::kShutdown};
  for (int trial = 0; trial < 100; ++trial) {
    std::string wire;
    const std::size_t frames = 1 + rng.index(4);
    for (std::size_t f = 0; f < frames; ++f) {
      std::string payload;
      const std::size_t len = rng.index(96);
      for (std::size_t i = 0; i < len; ++i) {
        payload.push_back(static_cast<char>(rng.index(256)));
      }
      wire += encode_frame(types[rng.index(3)], payload);
    }
    if (trial % 3 == 0) {
      wire[rng.index(wire.size())] ^= static_cast<char>(1 + rng.index(255));
    }

    FrameReader bulk;
    bulk.feed(wire);
    std::vector<Frame> bulk_frames;
    Frame frame;
    FrameReader::Result bulk_end;
    while ((bulk_end = bulk.next(&frame)) == FrameReader::Result::kFrame) {
      bulk_frames.push_back(frame);
    }

    FrameReader dribble;
    std::vector<Frame> dribble_frames;
    FrameReader::Result dribble_end = FrameReader::Result::kNeedMore;
    for (char byte : wire) {
      dribble.feed(std::string_view(&byte, 1));
      while ((dribble_end = dribble.next(&frame)) ==
             FrameReader::Result::kFrame) {
        dribble_frames.push_back(frame);
      }
    }

    ASSERT_EQ(dribble_frames.size(), bulk_frames.size()) << "trial " << trial;
    for (std::size_t i = 0; i < bulk_frames.size(); ++i) {
      EXPECT_EQ(dribble_frames[i].type, bulk_frames[i].type);
      EXPECT_EQ(dribble_frames[i].payload, bulk_frames[i].payload);
    }
    EXPECT_EQ(dribble_end, bulk_end) << "trial " << trial;
    EXPECT_EQ(dribble.poisoned(), bulk.poisoned()) << "trial " << trial;
    EXPECT_EQ(dribble.error(), bulk.error()) << "trial " << trial;
    EXPECT_EQ(dribble.frames_parsed(), bulk.frames_parsed());
  }
}

TEST(ServeFrame, NoStateLeaksAcrossReaders) {
  // One reader poisoned mid-frame must not affect a sibling (each
  // connection owns its own reader — this pins the "no cross-tenant
  // leakage" half of the contract at the unit level).
  FrameReader poisoned;
  std::string bad = encode_frame(FrameType::kSubmit, "secret-tenant-a");
  bad[1] ^= 0x7f;
  poisoned.feed(bad);
  Frame frame;
  EXPECT_EQ(poisoned.next(&frame), FrameReader::Result::kError);

  FrameReader clean;
  clean.feed(encode_frame(FrameType::kSubmit, "tenant-b"));
  frame = expect_frame(clean);
  EXPECT_EQ(frame.payload, "tenant-b");
  EXPECT_FALSE(clean.poisoned());
  EXPECT_TRUE(clean.error().empty());
}

}  // namespace
}  // namespace qcongest::serve
