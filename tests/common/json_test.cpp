#include "common/json.hpp"

#include <gtest/gtest.h>

#include <fstream>

namespace sgprs::common {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-0.5").as_number(), -0.5);
  EXPECT_EQ(parse_json("42").as_int(), 42);
  EXPECT_EQ(parse_json("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_number(), 1000.0);
  EXPECT_EQ(parse_json("1e3").as_int(), 1000) << "integral-valued is fine";
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructure) {
  const auto v = parse_json(R"({
    "name": "s1",
    "pool": { "contexts": 2, "oversubscription": 1.5 },
    "tasks": [ { "fps": 30 }, { "fps": 60 } ]
  })");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").as_string(), "s1");
  EXPECT_EQ(v.at("pool").at("contexts").as_int(), 2);
  ASSERT_EQ(v.at("tasks").size(), 2u);
  EXPECT_DOUBLE_EQ(v.at("tasks").items()[1].at("fps").as_number(), 60.0);
}

TEST(Json, PreservesObjectOrder) {
  const auto v = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
}

TEST(Json, LineCommentsAllowed) {
  const auto v = parse_json(R"(// header comment
  {
    "a": 1,  // trailing comment
    // full-line comment
    "b": [2, 3]
  })");
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").size(), 2u);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    parse_json("{\n  \"a\": 1,\n  \"b\" 2\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(":"), std::string::npos);
  }
}

TEST(Json, RejectsNumbersBeyondDoubleRange) {
  EXPECT_THROW(parse_json("2e400"), JsonError);
  EXPECT_THROW(parse_json("-2e400"), JsonError);
}

TEST(Json, StrictNumberAndStringSyntax) {
  EXPECT_THROW(parse_json("012"), JsonError) << "leading zeros";
  EXPECT_THROW(parse_json("-01"), JsonError);
  EXPECT_DOUBLE_EQ(parse_json("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(parse_json("0.5").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(parse_json("-0.25").as_number(), -0.25);
  EXPECT_THROW(parse_json("\"a\tb\""), JsonError) << "raw control char";
  EXPECT_THROW(parse_json("\"a\nb\""), JsonError) << "raw newline";
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("[1,]"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), JsonError);
  EXPECT_THROW(parse_json("tru"), JsonError);
  EXPECT_THROW(parse_json("1."), JsonError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonError);
  EXPECT_THROW(parse_json("{'single': 1}"), JsonError);
}

TEST(Json, NestingDepthIsCapped) {
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth)));
  // Far past the cap (a recursive parser would overflow the stack): a
  // positioned error at the first bracket beyond the limit.
  try {
    parse_json(std::string(200000, '['));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), kMaxJsonDepth + 1);
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos);
  }
  try {
    parse_json("{\"a\":\n" + nested(kMaxJsonDepth) + "}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), kMaxJsonDepth);
  }
}

TEST(Json, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_json(R"({"a": 1, "a": 2})"), JsonError);
}

TEST(Json, TypeMismatchNamesTypes) {
  const auto v = parse_json(R"({"a": 1})");
  try {
    v.at("a").as_string();
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("expected string"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("number"), std::string::npos);
  }
  EXPECT_THROW(v.at("missing"), JsonError);
  EXPECT_THROW(parse_json("1.5").as_int(), JsonError);
  EXPECT_THROW(parse_json("1e300").as_int(), JsonError) << "out of int64";
  EXPECT_THROW(parse_json("-1e300").as_int(), JsonError);
}

TEST(Json, FindReturnsNullOnAbsence) {
  const auto v = parse_json(R"({"a": 1})");
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("b"), nullptr);
  EXPECT_EQ(parse_json("[1]").find("a"), nullptr) << "non-object";
}

TEST(Json, BuiltValuesRoundTrip) {
  JsonValue obj = JsonValue::object();
  obj.set("n", JsonValue::of(3));
  JsonValue arr = JsonValue::array();
  arr.push(JsonValue::of("x"));
  obj.set("a", std::move(arr));
  EXPECT_EQ(obj.at("n").as_int(), 3);
  EXPECT_EQ(obj.at("a").items()[0].as_string(), "x");
}

TEST(Json, ParseFileErrorsNamePath) {
  EXPECT_THROW(parse_json_file("/nonexistent/spec.json"), JsonError);
  try {
    parse_json_file("/nonexistent/spec.json");
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/spec.json"),
              std::string::npos);
  }
}

TEST(Json, ParseFileErrorsKeepPosition) {
  const std::string path = testing::TempDir() + "sgprs_json_pos_test.json";
  {
    std::ofstream out(path);
    out << "{\n  \"a\": 1,\n  \"b\" 2\n}";
  }
  try {
    parse_json_file(path);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 3) << e.what();
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_EQ(msg.find("line 3"), msg.rfind("line 3"))
        << "position suffix must not be duplicated: " << msg;
  }
}

}  // namespace
}  // namespace sgprs::common
