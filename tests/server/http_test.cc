#include "server/http.h"

#include <gtest/gtest.h>

#include <string>

#include "testing/http_fuzz.h"

namespace galaxy::server {
namespace {

HttpRequest MustParse(const std::string& wire) {
  HttpRequest request;
  HttpParseResult result = ParseHttpRequest(wire, &request);
  EXPECT_EQ(result.state, ParseState::kDone) << wire;
  EXPECT_EQ(result.consumed, wire.size());
  return request;
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequest req = MustParse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_TRUE(req.body.empty());
  EXPECT_FALSE(req.WantsClose());
}

TEST(HttpParserTest, ParsesPostWithBody) {
  HttpRequest req = MustParse(
      "POST /query HTTP/1.1\r\nContent-Length: 11\r\n\r\nSELECT 1+1;");
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "SELECT 1+1;");
}

TEST(HttpParserTest, ToleratesBareLf) {
  HttpRequest req =
      MustParse("POST /u HTTP/1.1\nContent-Length: 3\n\nabc");
  EXPECT_EQ(req.body, "abc");
}

TEST(HttpParserTest, DecodesQueryParameters) {
  HttpRequest req = MustParse(
      "GET /update?table=my%20table&op=insert&flag HTTP/1.1\r\n\r\n");
  EXPECT_EQ(req.path, "/update");
  ASSERT_NE(req.FindParam("table"), nullptr);
  EXPECT_EQ(*req.FindParam("table"), "my table");
  ASSERT_NE(req.FindParam("op"), nullptr);
  EXPECT_EQ(*req.FindParam("op"), "insert");
  ASSERT_NE(req.FindParam("flag"), nullptr);
  EXPECT_EQ(*req.FindParam("flag"), "");
  EXPECT_EQ(req.FindParam("missing"), nullptr);
}

TEST(HttpParserTest, HeaderLookupIsCaseInsensitive) {
  HttpRequest req = MustParse(
      "GET / HTTP/1.1\r\ncOnTeNt-TyPe: text/plain\r\n\r\n");
  ASSERT_NE(req.FindHeader("Content-Type"), nullptr);
  EXPECT_EQ(*req.FindHeader("Content-Type"), "text/plain");
}

TEST(HttpParserTest, ConnectionCloseSemantics) {
  EXPECT_TRUE(
      MustParse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").WantsClose());
  EXPECT_TRUE(MustParse("GET / HTTP/1.0\r\n\r\n").WantsClose());
  EXPECT_FALSE(
      MustParse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
          .WantsClose());
}

TEST(HttpParserTest, IncrementalFeedAcrossEveryBoundary) {
  const std::string wire =
      "POST /query?fmt=json HTTP/1.1\r\nHost: a\r\nContent-Length: 6\r\n\r\n"
      "SELECT";
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    HttpRequest req;
    HttpParseResult partial =
        ParseHttpRequest(std::string_view(wire).substr(0, cut), &req);
    EXPECT_NE(partial.state, ParseState::kDone) << "cut=" << cut;
  }
  MustParse(wire);
}

TEST(HttpParserTest, PipelinedRequestsConsumeExactly) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  HttpRequest req;
  HttpParseResult result = ParseHttpRequest(first + second, &req);
  ASSERT_EQ(result.state, ParseState::kDone);
  EXPECT_EQ(result.consumed, first.size());
  EXPECT_EQ(req.path, "/a");
}

TEST(HttpParserTest, RejectsUnsupportedVersion) {
  HttpRequest req;
  HttpParseResult result =
      ParseHttpRequest("GET / HTTP/2.0\r\n\r\n", &req);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.http_status, 505);
}

TEST(HttpParserTest, RejectsTransferEncoding) {
  HttpRequest req;
  HttpParseResult result = ParseHttpRequest(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", &req);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.http_status, 501);
}

TEST(HttpParserTest, RejectsDuplicateContentLength) {
  HttpRequest req;
  HttpParseResult result = ParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx",
      &req);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.http_status, 400);
}

TEST(HttpParserTest, RejectsOversizedBodyDeclaration) {
  HttpRequest req;
  HttpParseResult result = ParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n", &req);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.http_status, 413);
}

TEST(HttpParserTest, RejectsTooManyHeaders) {
  std::string wire = "GET / HTTP/1.1\r\n";
  for (size_t i = 0; i <= kMaxHeaderCount; ++i) {
    wire += "X-H" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  HttpRequest req;
  HttpParseResult result = ParseHttpRequest(wire, &req);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.http_status, 413);
}

TEST(HttpParserTest, RejectsEndlessRequestLine) {
  std::string wire(kMaxHeaderBytes + 2, 'a');  // no newline at all
  HttpRequest req;
  HttpParseResult result = ParseHttpRequest(wire, &req);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.http_status, 413);
}

TEST(HttpParserTest, RejectsMalformedRequestLines) {
  for (const char* wire :
       {"GET\r\n\r\n", "GET /\r\n\r\n", "GET / HTTP/1.1 extra\r\n\r\n",
        "G@T / HTTP/1.1\r\n\r\n", " / HTTP/1.1\r\n\r\n"}) {
    HttpRequest req;
    HttpParseResult result = ParseHttpRequest(wire, &req);
    EXPECT_EQ(result.state, ParseState::kError) << wire;
    EXPECT_FALSE(result.error.ok()) << wire;
  }
}

TEST(HttpUtilTest, UrlDecodeHandlesEscapesAndMalformed) {
  EXPECT_EQ(UrlDecode("a+b%2Fc"), "a b/c");
  EXPECT_EQ(UrlDecode("%zz%"), "%zz%");  // malformed escapes kept literally
  EXPECT_EQ(UrlDecode("%41"), "A");
}

TEST(HttpUtilTest, JsonEscapeControlsAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(HttpUtilTest, SerializeResponseRoundTripsThroughHeaders) {
  HttpResponse response;
  response.status = 206;
  response.body = "hello";
  response.extra_headers.emplace_back("X-Galaxy-Quality",
                                      "approximate-superset");
  response.close = true;
  std::string wire = SerializeResponse(response);
  EXPECT_NE(wire.find("HTTP/1.1 206 Partial Content\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("X-Galaxy-Quality: approximate-superset\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 5), "hello");
}

TEST(HttpFuzzTest, ShortCampaignHoldsTheContract) {
  HttpFuzzStats stats;
  std::string detail = FuzzHttp(/*seed=*/11, /*iterations=*/300, &stats);
  EXPECT_EQ(detail, "");
  EXPECT_GT(stats.inputs, 900u);
  EXPECT_GT(stats.parsed, 0u);
  EXPECT_GT(stats.errors, 0u);
}

}  // namespace
}  // namespace galaxy::server
