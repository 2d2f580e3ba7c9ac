//===- lang/Lexer.cpp - Tokenizer for the concurrent mini-language --------===//

#include "lang/Lexer.h"

#include <cctype>
#include <charconv>
#include <map>

using namespace seqver;
using namespace seqver::lang;

namespace {

const std::map<std::string, TokenKind> &keywordTable() {
  static const std::map<std::string, TokenKind> Table = {
      {"var", TokenKind::KwVar},       {"int", TokenKind::KwInt},
      {"bool", TokenKind::KwBool},     {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},   {"thread", TokenKind::KwThread},
      {"assume", TokenKind::KwAssume}, {"assert", TokenKind::KwAssert},
      {"havoc", TokenKind::KwHavoc},   {"skip", TokenKind::KwSkip},
      {"atomic", TokenKind::KwAtomic}, {"while", TokenKind::KwWhile},
      {"requires", TokenKind::KwRequires},
      {"ensures", TokenKind::KwEnsures},
      {"if", TokenKind::KwIf},         {"else", TokenKind::KwElse},
  };
  return Table;
}

} // namespace

std::vector<Token> seqver::lang::tokenize(const std::string &Source) {
  std::vector<Token> Tokens;
  size_t Pos = 0;
  int Line = 1;
  int Column = 1;

  auto Advance = [&]() {
    if (Pos < Source.size() && Source[Pos] == '\n') {
      ++Line;
      Column = 1;
    } else {
      ++Column;
    }
    ++Pos;
  };
  auto Peek = [&](size_t Offset = 0) -> char {
    return Pos + Offset < Source.size() ? Source[Pos + Offset] : '\0';
  };
  auto Emit = [&](TokenKind Kind, std::string Text, int TokLine,
                  int TokColumn) {
    Token T;
    T.Kind = Kind;
    T.Text = std::move(Text);
    T.Line = TokLine;
    T.Column = TokColumn;
    Tokens.push_back(std::move(T));
  };

  while (Pos < Source.size()) {
    char C = Peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      Advance();
      continue;
    }
    if (C == '/' && Peek(1) == '/') {
      while (Pos < Source.size() && Peek() != '\n')
        Advance();
      continue;
    }
    if (C == '/' && Peek(1) == '*') {
      Advance();
      Advance();
      while (Pos < Source.size() && !(Peek() == '*' && Peek(1) == '/'))
        Advance();
      if (Pos >= Source.size()) {
        Emit(TokenKind::Error, "unterminated block comment", Line, Column);
        return Tokens;
      }
      Advance();
      Advance();
      continue;
    }

    int TokLine = Line;
    int TokColumn = Column;
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string Text;
      while (std::isalnum(static_cast<unsigned char>(Peek())) ||
             Peek() == '_') {
        Text += Peek();
        Advance();
      }
      auto It = keywordTable().find(Text);
      Emit(It != keywordTable().end() ? It->second : TokenKind::Identifier,
           std::move(Text), TokLine, TokColumn);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      std::string Text;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        Text += Peek();
        Advance();
      }
      int64_t Value = 0;
      if (std::from_chars(Text.data(), Text.data() + Text.size(), Value).ec !=
          std::errc()) {
        Emit(TokenKind::Error, "integer literal out of range", TokLine,
             TokColumn);
        return Tokens;
      }
      Token T;
      T.Kind = TokenKind::Integer;
      T.Text = Text;
      T.IntValue = Value;
      T.Line = TokLine;
      T.Column = TokColumn;
      Tokens.push_back(std::move(T));
      continue;
    }

    auto TwoChar = [&](char First, char Second, TokenKind Kind) -> bool {
      if (C == First && Peek(1) == Second) {
        Advance();
        Advance();
        Emit(Kind, std::string{First, Second}, TokLine, TokColumn);
        return true;
      }
      return false;
    };
    if (TwoChar(':', '=', TokenKind::Assign) ||
        TwoChar('=', '=', TokenKind::Eq) ||
        TwoChar('!', '=', TokenKind::Neq) ||
        TwoChar('<', '=', TokenKind::Le) ||
        TwoChar('>', '=', TokenKind::Ge) ||
        TwoChar('&', '&', TokenKind::AndAnd) ||
        TwoChar('|', '|', TokenKind::OrOr))
      continue;

    TokenKind Kind;
    switch (C) {
    case '{': Kind = TokenKind::LBrace; break;
    case '}': Kind = TokenKind::RBrace; break;
    case '(': Kind = TokenKind::LParen; break;
    case ')': Kind = TokenKind::RParen; break;
    case ';': Kind = TokenKind::Semicolon; break;
    case '<': Kind = TokenKind::Lt; break;
    case '>': Kind = TokenKind::Gt; break;
    case '+': Kind = TokenKind::Plus; break;
    case '-': Kind = TokenKind::Minus; break;
    case '*': Kind = TokenKind::Star; break;
    case '!': Kind = TokenKind::Not; break;
    default:
      Emit(TokenKind::Error, std::string("unexpected character '") + C + "'",
           TokLine, TokColumn);
      return Tokens;
    }
    Advance();
    Emit(Kind, std::string(1, C), TokLine, TokColumn);
  }

  Emit(TokenKind::EndOfFile, "", Line, Column);
  return Tokens;
}

std::string seqver::lang::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier: return "identifier";
  case TokenKind::Integer: return "integer";
  case TokenKind::KwVar: return "'var'";
  case TokenKind::KwInt: return "'int'";
  case TokenKind::KwBool: return "'bool'";
  case TokenKind::KwTrue: return "'true'";
  case TokenKind::KwFalse: return "'false'";
  case TokenKind::KwThread: return "'thread'";
  case TokenKind::KwAssume: return "'assume'";
  case TokenKind::KwAssert: return "'assert'";
  case TokenKind::KwHavoc: return "'havoc'";
  case TokenKind::KwSkip: return "'skip'";
  case TokenKind::KwAtomic: return "'atomic'";
  case TokenKind::KwRequires: return "'requires'";
  case TokenKind::KwEnsures: return "'ensures'";
  case TokenKind::KwWhile: return "'while'";
  case TokenKind::KwIf: return "'if'";
  case TokenKind::KwElse: return "'else'";
  case TokenKind::LBrace: return "'{'";
  case TokenKind::RBrace: return "'}'";
  case TokenKind::LParen: return "'('";
  case TokenKind::RParen: return "')'";
  case TokenKind::Semicolon: return "';'";
  case TokenKind::Assign: return "':='";
  case TokenKind::Eq: return "'=='";
  case TokenKind::Neq: return "'!='";
  case TokenKind::Le: return "'<='";
  case TokenKind::Lt: return "'<'";
  case TokenKind::Ge: return "'>='";
  case TokenKind::Gt: return "'>'";
  case TokenKind::Plus: return "'+'";
  case TokenKind::Minus: return "'-'";
  case TokenKind::Star: return "'*'";
  case TokenKind::Not: return "'!'";
  case TokenKind::AndAnd: return "'&&'";
  case TokenKind::OrOr: return "'||'";
  case TokenKind::EndOfFile: return "end of file";
  case TokenKind::Error: return "lexical error";
  }
  return "unknown";
}
