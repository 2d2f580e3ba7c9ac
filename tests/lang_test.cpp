//===- tests/lang_test.cpp - Lexer and parser tests -----------------------===//

#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace seqver;
using namespace seqver::lang;
using seqver::smt::Sort;

TEST(LexerTest, TokenizesBasics) {
  auto Tokens = tokenize("var int x := 3; // comment\nthread t { x := x + 1; }");
  ASSERT_FALSE(Tokens.empty());
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwVar);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::KwInt);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[2].Text, "x");
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Assign);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::Integer);
  EXPECT_EQ(Tokens[4].IntValue, 3);
  EXPECT_EQ(Tokens.back().Kind, TokenKind::EndOfFile);
}

TEST(LexerTest, BlockComments) {
  auto Tokens = tokenize("/* multi \n line */ thread");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwThread);
}

TEST(LexerTest, UnterminatedBlockComment) {
  auto Tokens = tokenize("/* oops");
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Error);
}

TEST(LexerTest, TwoCharOperators) {
  auto Tokens = tokenize(":= == != <= >= && || < > ! *");
  std::vector<TokenKind> Kinds;
  for (const auto &T : Tokens)
    Kinds.push_back(T.Kind);
  std::vector<TokenKind> Expected = {
      TokenKind::Assign, TokenKind::Eq,     TokenKind::Neq,
      TokenKind::Le,     TokenKind::Ge,     TokenKind::AndAnd,
      TokenKind::OrOr,   TokenKind::Lt,     TokenKind::Gt,
      TokenKind::Not,    TokenKind::Star,   TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, LineNumbers) {
  auto Tokens = tokenize("var\nint\nx");
  EXPECT_EQ(Tokens[0].Line, 1);
  EXPECT_EQ(Tokens[1].Line, 2);
  EXPECT_EQ(Tokens[2].Line, 3);
}

TEST(LexerTest, UnexpectedCharacter) {
  auto Tokens = tokenize("var $ x");
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Error);
}

TEST(LexerTest, IntegerLiteralOutOfRange) {
  // The int64 maximum lexes; one past it, and a 20-digit literal, are
  // lexical errors at the literal's position (not an exception).
  auto Max = tokenize("9223372036854775807");
  ASSERT_EQ(Max[0].Kind, TokenKind::Integer);
  EXPECT_EQ(Max[0].IntValue, INT64_MAX);
  for (const char *Literal : {"9223372036854775808", "99999999999999999999"}) {
    auto Tokens = tokenize(std::string("var int x :=\n  ") + Literal + ";");
    ASSERT_EQ(Tokens.back().Kind, TokenKind::Error) << Literal;
    EXPECT_EQ(Tokens.back().Text, "integer literal out of range");
    EXPECT_EQ(Tokens.back().Line, 2);
    EXPECT_EQ(Tokens.back().Column, 3);
  }
  smt::TermManager TM;
  ParseResult R = parseProgram("var int x := 99999999999999999999;", TM);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("integer literal out of range"), std::string::npos)
      << R.Error;
}

namespace {

ParseResult parse(const std::string &Source) {
  static thread_local smt::TermManager *TM = nullptr;
  // Fresh manager per call to avoid sort clashes between tests.
  delete TM;
  TM = new smt::TermManager();
  return parseProgram(Source, *TM);
}

} // namespace

TEST(ParserTest, MinimalProgram) {
  auto R = parse("thread t { skip; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Prog->Threads.size(), 1u);
  EXPECT_EQ(R.Prog->Threads[0].Name, "t");
}

TEST(ParserTest, GlobalDeclarations) {
  auto R = parse("var int x := 5; var bool f := true; var int y; "
                 "thread t { y := x; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Prog->Globals.size(), 3u);
  EXPECT_EQ(R.Prog->Globals[0].IntInit, 5);
  EXPECT_TRUE(R.Prog->Globals[1].BoolInit);
  EXPECT_FALSE(R.Prog->Globals[2].HasInit);
}

TEST(ParserTest, NegativeInitializer) {
  auto R = parse("var int x := -7; thread t { skip; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Prog->Globals[0].IntInit, -7);
}

TEST(ParserTest, StructuredStatements) {
  auto R = parse(R"(
    var int x;
    var bool flag;
    thread t {
      while (x < 10) {
        if (flag) { x := x + 1; } else { havoc x; }
      }
      atomic {
        x := x - 1;
        if (x == 0) { flag := true; }
      }
      assert x >= 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  const auto &Body = R.Prog->Threads[0].Body;
  ASSERT_EQ(Body.size(), 3u);
  EXPECT_EQ(Body[0]->Kind, StmtKind::While);
  EXPECT_EQ(Body[1]->Kind, StmtKind::Atomic);
  EXPECT_EQ(Body[2]->Kind, StmtKind::Assert);
}

TEST(ParserTest, NondeterministicConditions) {
  auto R = parse("thread t { while (*) { skip; } if (*) { skip; } }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Prog->Threads[0].Body[0]->Cond, nullptr);
  EXPECT_EQ(R.Prog->Threads[0].Body[1]->Cond, nullptr);
}

TEST(ParserTest, ExpressionPrecedence) {
  // 1 + 2 * 3 == 7 should parse (constant-fold) to true.
  auto R = parse("thread t { assume 1 + 2 * 3 == 7; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  // The condition folds to the constant true.
  EXPECT_EQ(R.Prog->Threads[0].Body[0]->Cond->kind(),
            smt::TermKind::BoolConst);
  EXPECT_TRUE(R.Prog->Threads[0].Body[0]->Cond->boolValue());
}

TEST(ParserTest, BooleanOperators) {
  auto R = parse("var bool a; var bool b; var int x; "
                 "thread t { assume a && !b || x >= 2; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(ParserTest, BoolEqualityBecomesIff) {
  auto R = parse("var bool a; var bool b; thread t { assume a == b; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Prog->Threads[0].Body[0]->Cond->kind(), smt::TermKind::Iff);
}

TEST(ParserTest, RejectsNonlinear) {
  auto R = parse("var int x; var int y; thread t { x := x * y; }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("nonlinear"), std::string::npos);
}

TEST(ParserTest, AllowsConstantScaling) {
  auto R = parse("var int x; thread t { x := 2 * x + x * 3; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(ParserTest, RejectsUndeclaredVariable) {
  auto R = parse("thread t { zz := 1; }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("undeclared"), std::string::npos);
}

TEST(ParserTest, RejectsRedeclaration) {
  auto R = parse("var int x; var bool x; thread t { skip; }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("redeclared"), std::string::npos);
}

TEST(ParserTest, RejectsDuplicateThreadNames) {
  auto R = parse("thread t { skip; } thread t { skip; }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, RejectsSortMismatch) {
  auto R = parse("var int x; thread t { assume x; }");
  EXPECT_FALSE(R.ok());
  auto R2 = parse("var bool b; thread t { assume b + 1 == 2; }");
  EXPECT_FALSE(R2.ok());
  auto R3 = parse("var bool b; thread t { assume b < b; }");
  EXPECT_FALSE(R3.ok());
}

TEST(ParserTest, RejectsAssertInsideAtomic) {
  auto R = parse("var int x; thread t { atomic { assert x == 0; } }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, RejectsWhileInsideAtomic) {
  auto R = parse("var int x; thread t { atomic { while (x < 1) { skip; } } }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, RejectsNestedAtomic) {
  auto R = parse("thread t { atomic { atomic { skip; } } }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, RejectsEmptyProgram) {
  auto R = parse("var int x;");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, ErrorsCarryLocation) {
  auto R = parse("thread t {\n  zz := 1;\n}");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error.substr(0, 2), "2:");
}

TEST(ParserTest, IfInsideAtomicAllowed) {
  auto R = parse("var int x; thread t { atomic { if (x == 0) { x := 1; } } }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(ParserTest, ParenthesizedExpressions) {
  auto R = parse("var int x; thread t { x := (x + 1) * 2; assume (x == 2); }");
  ASSERT_TRUE(R.ok()) << R.Error;
}
