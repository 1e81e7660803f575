#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strutil.hpp"

namespace {

using hadas::util::Json;

TEST(Json, DefaultIsNull) {
  Json json;
  EXPECT_TRUE(json.is_null());
  EXPECT_EQ(json.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(3.5).dump(), "3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(std::size_t{7}).dump(), "7");
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const Json json(42);
  EXPECT_EQ(json.as_number(), 42.0);
  EXPECT_EQ(json.as_int(), 42);
  EXPECT_EQ(json.as_index(), 42u);
  EXPECT_THROW(json.as_string(), std::logic_error);
  EXPECT_THROW(json.as_bool(), std::logic_error);
  EXPECT_THROW(Json(1.5).as_int(), std::logic_error);
  EXPECT_THROW(Json(-1).as_index(), std::logic_error);
}

TEST(Json, ObjectBuildAndAccess) {
  Json json;
  json["name"] = Json("hadas");
  json["nested"]["x"] = Json(1);
  EXPECT_TRUE(json.is_object());
  EXPECT_EQ(json.at("name").as_string(), "hadas");
  EXPECT_EQ(json.at("nested").at("x").as_int(), 1);
  EXPECT_TRUE(json.contains("name"));
  EXPECT_FALSE(json.contains("missing"));
  EXPECT_THROW(json.at("missing"), std::out_of_range);
  EXPECT_EQ(json.size(), 2u);
}

TEST(Json, ArrayBuildAndAccess) {
  Json json;
  auto& array = json.make_array();
  array.push_back(Json(1));
  array.push_back(Json("two"));
  EXPECT_EQ(json.size(), 2u);
  EXPECT_EQ(json.at(std::size_t{0}).as_int(), 1);
  EXPECT_EQ(json.at(std::size_t{1}).as_string(), "two");
  EXPECT_THROW(json.at(std::size_t{2}), std::out_of_range);
}

TEST(Json, CompactDumpIsDeterministic) {
  Json json;
  json["b"] = Json(2);
  json["a"] = Json(1);
  // std::map ordering -> keys sorted.
  EXPECT_EQ(json.dump(), "{\"a\":1,\"b\":2}");
}

TEST(Json, PrettyDump) {
  Json json;
  json["k"] = Json(Json::Array{Json(1), Json(2)});
  EXPECT_EQ(json.dump(2), "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
}

TEST(Json, StringEscaping) {
  const Json json(std::string("a\"b\\c\nd\te"));
  const std::string dumped = json.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json::parse(dumped).as_string(), json.as_string());
}

/// `s` as a JSON string literal, escaped one byte at a time: the reference
/// dump() must match.
std::string reference_dump(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c < 0x20) {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xF];
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

// dump() scans plain bytes eight at a time. Every byte that needs an escape,
// at every offset 0-23 of plain runs 0-24 long, must come out as the
// byte-wise escaper writes it. The plain runs cycle through the bytes next
// to the escape classes (0x20, 0x21, 0x23, 0x5b, 0x5d) and the same values
// with the high bit set, where a word-wide test could borrow or carry.
TEST(Json, DumpStringWordScanMatchesBytewiseEscaper) {
  const std::string plain = "\x20\x21\x23\x5b\x5d\x7f\x80\xa0\xa2\xdc\xff"
                            "az";
  std::string escapable;
  for (int b = 0; b < 0x20; ++b) escapable.push_back(static_cast<char>(b));
  escapable += "\"\\";
  for (std::size_t length = 0; length <= 24; ++length) {
    std::string run;
    for (std::size_t i = 0; i < length; ++i) run += plain[i % plain.size()];
    ASSERT_EQ(Json(run).dump(), reference_dump(run)) << "plain run " << length;
    for (std::size_t at = 0; at <= std::min<std::size_t>(length, 23); ++at) {
      for (const char e : escapable) {
        std::string s = run;
        s.insert(at, 1, e);
        ASSERT_EQ(Json(s).dump(), reference_dump(s))
            << "byte " << static_cast<int>(static_cast<unsigned char>(e))
            << " at " << at << " of a " << length << "-byte run";
      }
    }
  }
}

// Journals carry binary stream bytes as hex: every byte value encodes to
// its two lower-case digits and decodes back, from either case.
TEST(Json, HexRoundTripsEveryByteValue) {
  std::string all;
  std::string digits;
  for (int b = 0; b < 256; ++b) {
    all.push_back(static_cast<char>(b));
    char pair[3];
    std::snprintf(pair, sizeof(pair), "%02x", b);
    digits += pair;
  }
  EXPECT_EQ(hadas::util::to_hex(all), digits);
  EXPECT_EQ(hadas::util::from_hex(digits), all);
  std::string upper = digits;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  EXPECT_EQ(hadas::util::from_hex(upper), all);
}

// Pins the serialized bytes of every byte value, in values and in keys, at
// both dump widths: runs of quotes, backslashes, control bytes and bytes
// >= 0x80 next to each other, a string that starts and ends with an
// escape, an empty one and a long plain run. Durable files and frames carry
// dump() output, so a faster escaper must reproduce these bytes exactly.
TEST(Json, DumpEscapesEveryByteValueExactly) {
  using namespace std::string_literals;
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  Json json;
  json["all"] = Json(all);
  json["key\"\\\001\200"s] = Json(""s);
  json["runs"] = Json(Json::Array{
      Json("\"\"\"\\\\\\"s),
      Json("plain run, then \"quoted\" and \\back\\slashed\\"s),
      Json("\001\002\n\t\r\037\177\010\014"s),
      Json("\200\"\377\\\303\251 caf\303\251\000end"s),
      Json("\nmiddle\n"s),
      Json(""s),
      Json("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"s),
  });

  const std::string compact =
      "{\"all\":\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006"
      "\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011"
      "\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a"
      "\\u001b\\u001c\\u001d\\u001e\\u001f !\\\"#$%&'()*+,-./0123456789:;<="
      ">?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_`abcdefghijklmnopqrstuvwxyz"
      "{|}~\177\200\201\202\203\204\205\206\207\210\211\212\213\214\215"
      "\216\217\220\221\222\223\224\225\226\227\230\231\232\233\234\235"
      "\236\237\240\241\242\243\244\245\246\247\250\251\252\253\254\255"
      "\256\257\260\261\262\263\264\265\266\267\270\271\272\273\274\275"
      "\276\277\300\301\302\303\304\305\306\307\310\311\312\313\314\315"
      "\316\317\320\321\322\323\324\325\326\327\330\331\332\333\334\335"
      "\336\337\340\341\342\343\344\345\346\347\350\351\352\353\354\355"
      "\356\357\360\361\362\363\364\365\366\367\370\371\372\373\374\375"
      "\376\377\","
      "\"key\\\"\\\\\\u0001\200\":\"\","
      "\"runs\":["
      "\"\\\"\\\"\\\"\\\\\\\\\\\\\","
      "\"plain run, then \\\"quoted\\\" and \\\\back\\\\slashed\\\\\","
      "\"\\u0001\\u0002\\n\\t\\r\\u001f\177\\u0008\\u000c\","
      "\"\200\\\"\377\\\\\303\251 caf\303\251\\u0000end\","
      "\"\\nmiddle\\n\","
      "\"\","
      "\"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789\"]}";
  const std::string pretty =
      "{\n"
      "  \"all\": \"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006"
      "\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011"
      "\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a"
      "\\u001b\\u001c\\u001d\\u001e\\u001f !\\\"#$%&'()*+,-./0123456789:;<="
      ">?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_`abcdefghijklmnopqrstuvwxyz"
      "{|}~\177\200\201\202\203\204\205\206\207\210\211\212\213\214\215"
      "\216\217\220\221\222\223\224\225\226\227\230\231\232\233\234\235"
      "\236\237\240\241\242\243\244\245\246\247\250\251\252\253\254\255"
      "\256\257\260\261\262\263\264\265\266\267\270\271\272\273\274\275"
      "\276\277\300\301\302\303\304\305\306\307\310\311\312\313\314\315"
      "\316\317\320\321\322\323\324\325\326\327\330\331\332\333\334\335"
      "\336\337\340\341\342\343\344\345\346\347\350\351\352\353\354\355"
      "\356\357\360\361\362\363\364\365\366\367\370\371\372\373\374\375"
      "\376\377\",\n"
      "  \"key\\\"\\\\\\u0001\200\": \"\",\n"
      "  \"runs\": [\n"
      "    \"\\\"\\\"\\\"\\\\\\\\\\\\\",\n"
      "    \"plain run, then \\\"quoted\\\" and \\\\back\\\\slashed\\\\\",\n"
      "    \"\\u0001\\u0002\\n\\t\\r\\u001f\177\\u0008\\u000c\",\n"
      "    \"\200\\\"\377\\\\\303\251 caf\303\251\\u0000end\",\n"
      "    \"\\nmiddle\\n\",\n"
      "    \"\",\n"
      "    \"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789\"\n"
      "  ]\n"
      "}";
  EXPECT_EQ(json.dump(), compact);
  EXPECT_EQ(json.dump(2), pretty);
  EXPECT_EQ(Json::parse(json.dump()), json);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("-12.5e1").as_number(), -125.0);
  EXPECT_EQ(Json::parse("\"x\"").as_string(), "x");
}

TEST(JsonParse, NestedStructure) {
  const Json json = Json::parse(
      R"({"a": [1, 2, {"b": true}], "c": null, "d": {"e": "f"}})");
  EXPECT_EQ(json.at("a").size(), 3u);
  EXPECT_TRUE(json.at("a").at(std::size_t{2}).at("b").as_bool());
  EXPECT_TRUE(json.at("c").is_null());
  EXPECT_EQ(json.at("d").at("e").as_string(), "f");
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  const std::string two_byte = Json::parse("\"\\u00e9\"").as_string();  // é
  EXPECT_EQ(two_byte.size(), 2u);
  const std::string three_byte = Json::parse("\"\\u20ac\"").as_string();  // €
  EXPECT_EQ(three_byte.size(), 3u);
}

TEST(JsonParse, Whitespace) {
  const Json json = Json::parse("  {  \"a\"  :  [ 1 , 2 ]  }  ");
  EXPECT_EQ(json.at("a").size(), 2u);
}

TEST(JsonParse, ErrorsCarryOffsets) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{1: 2}",
        "[1,]2", "nul"}) {
    EXPECT_THROW(Json::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, RoundTripRandomStructure) {
  Json json;
  json["numbers"] = Json(Json::Array{Json(0), Json(-1.25), Json(1e9)});
  json["flags"] = Json(Json::Array{Json(true), Json(false), Json()});
  json["meta"]["device"] = Json("TX2 Pascal GPU");
  const Json reparsed_compact = Json::parse(json.dump());
  const Json reparsed_pretty = Json::parse(json.dump(4));
  EXPECT_EQ(reparsed_compact, json);
  EXPECT_EQ(reparsed_pretty, json);
}

TEST(Json, NonFiniteNumbersRejected) {
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(),
               std::logic_error);
}

TEST(JsonParse, TrailingGarbageRejected) {
  for (const char* bad : {"{} {}", "[1]x", "null,", "42 43", "\"a\"\"b\"",
                          "{\"a\":1}garbage", "true false"}) {
    EXPECT_THROW(Json::parse(bad), std::invalid_argument) << bad;
  }
  // Trailing whitespace is fine; trailing tokens are not.
  EXPECT_NO_THROW(Json::parse("{\"a\": 1}  \n\t "));
}

TEST(JsonParse, DepthGuardRejectsNestingBombs) {
  // kMaxParseDepth levels parse; one more is rejected (not a stack overflow).
  const std::string at_limit(Json::kMaxParseDepth, '[');
  std::string closed = at_limit;
  closed.append(Json::kMaxParseDepth, ']');
  EXPECT_NO_THROW(Json::parse(closed));

  const std::string over(Json::kMaxParseDepth + 1, '[');
  EXPECT_THROW(Json::parse(over), std::invalid_argument);
  // Same guard for objects and a megabyte-scale bomb.
  std::string object_bomb;
  for (std::size_t i = 0; i <= Json::kMaxParseDepth; ++i) object_bomb += "{\"k\":";
  EXPECT_THROW(Json::parse(object_bomb), std::invalid_argument);
  EXPECT_THROW(Json::parse(std::string(1 << 20, '[')), std::invalid_argument);
}

TEST(JsonParse, DepthGuardResetsBetweenSiblings) {
  // Depth is nesting depth, not cumulative container count: many shallow
  // siblings must parse even when their total exceeds the limit.
  std::string siblings = "[";
  for (std::size_t i = 0; i < 2 * Json::kMaxParseDepth; ++i) {
    if (i > 0) siblings += ',';
    siblings += "[{\"a\":[]}]";
  }
  siblings += ']';
  EXPECT_NO_THROW(Json::parse(siblings));
}

/// Property-style check: random documents (seeded, deterministic) survive
/// compact and pretty round trips bit-for-bit.
Json random_json(hadas::util::Rng& rng, std::size_t depth) {
  const double pick = rng.uniform();
  if (depth == 0 || pick < 0.35) {
    switch (rng.uniform_index(5)) {
      case 0: return Json();
      case 1: return Json(rng.uniform() < 0.5);
      case 2: return Json(rng.uniform() * 2.0 - 1.0);
      case 3: return Json(static_cast<int>(rng.uniform_index(2000)) - 1000);
      default: {
        std::string s;
        const std::size_t len = rng.uniform_index(12);
        for (std::size_t i = 0; i < len; ++i)
          s += static_cast<char>(rng.uniform_index(94) + 32);  // printable ASCII
        if (rng.uniform() < 0.3) s += "\"\\\n\t";            // escape stress
        return Json(s);
      }
    }
  }
  if (pick < 0.675) {
    Json::Array array;
    const std::size_t n = rng.uniform_index(4);
    for (std::size_t i = 0; i < n; ++i)
      array.push_back(random_json(rng, depth - 1));
    return Json(std::move(array));
  }
  Json::Object object;
  const std::size_t n = rng.uniform_index(4);
  for (std::size_t i = 0; i < n; ++i)
    object["k" + std::to_string(rng.uniform_index(100))] =
        random_json(rng, depth - 1);
  return Json(std::move(object));
}

TEST(JsonParse, PropertyRoundTripAdversarial) {
  hadas::util::Rng rng(0x15011);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const Json doc = random_json(rng, 5);
    const std::string compact = doc.dump();
    const std::string pretty = doc.dump(2);
    EXPECT_EQ(Json::parse(compact), doc) << compact;
    EXPECT_EQ(Json::parse(pretty), doc) << pretty;
    // dump(parse(dump(x))) is a fixed point.
    EXPECT_EQ(Json::parse(compact).dump(), compact);
  }
}

}  // namespace
