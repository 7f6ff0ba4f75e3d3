#include "tgd/parser.h"

#include <cstdio>
#include <string>
#include <vector>

#include "base/columnar.h"

namespace frontiers {

namespace {

// --- Input limits -----------------------------------------------------------
// The grammar is deliberately flat (atoms cannot nest), so the parser has no
// recursion to overflow; these caps bound the dimensions that *are*
// unbounded in hostile input — token length, atom width, conjunct length
// and rule count — turning pathological inputs surfaced by the fuzzer
// (tests/parser_fuzz_test.cc) into position-carrying errors instead of
// multi-gigabyte allocations.  The values are far above anything a real
// theory file uses.

/// Longest accepted identifier (predicate, constant or variable name).
constexpr size_t kMaxIdentifierLength = 4096;
/// Widest accepted atom.
constexpr size_t kMaxArity = 1024;
/// Longest accepted conjunction (rule body/head, query, fact list).
constexpr size_t kMaxAtomsPerConjunction = 65536;
/// Most rules in one theory text.
constexpr size_t kMaxRulesPerTheory = 65536;

enum class TokenKind {
  kIdent,
  kLParen,
  kRParen,
  kComma,
  kColon,
  kSemicolon,
  kDot,
  kArrow,      // ->
  kTurnstile,  // :-
  kNewline,
  kEnd,
};

/// A token is a view into the source text; no token owns a string.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  size_t position = 0;
};

// Character classes of the "C" locale, in which the grammar is defined.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsAlnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
         (c >= 'a' && c <= 'z');
}
bool IsIdentifierChar(char c) { return IsAlnum(c) || c == '_' || c == '\''; }

/// The one lexer of the DSL: a pull lexer that scans the next token on
/// demand.  After the end of the text, or after a lexical error, `Next`
/// returns kEnd tokens; the error stays in `error()`.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token Next() {
    while (pos_ < text_.size()) {
      const size_t i = pos_;
      const char c = text_[i];
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '\n') return Emit(TokenKind::kNewline, i, 1);
      if (IsSpace(c)) {
        ++pos_;
        continue;
      }
      const char after = i + 1 < text_.size() ? text_[i + 1] : '\0';
      if (c == '-' && after == '>') return Emit(TokenKind::kArrow, i, 2);
      if (c == ':' && after == '-') return Emit(TokenKind::kTurnstile, i, 2);
      switch (c) {
        case '(':
          return Emit(TokenKind::kLParen, i, 1);
        case ')':
          return Emit(TokenKind::kRParen, i, 1);
        case ',':
          return Emit(TokenKind::kComma, i, 1);
        case ':':
          return Emit(TokenKind::kColon, i, 1);
        case ';':
          return Emit(TokenKind::kSemicolon, i, 1);
        case '.':
          return Emit(TokenKind::kDot, i, 1);
        default:
          break;
      }
      if (IsAlnum(c) || c == '_') {
        size_t end = i + 1;
        while (end < text_.size() && IsIdentifierChar(text_[end])) ++end;
        if (end - i > kMaxIdentifierLength) {
          return Fail("identifier of " + std::to_string(end - i) +
                      " characters at position " + std::to_string(i) +
                      " exceeds the " + std::to_string(kMaxIdentifierLength) +
                      "-character limit");
        }
        return Emit(TokenKind::kIdent, i, end - i);
      }
      // Garbage bytes: render printable characters literally, everything
      // else (control bytes, UTF-8 tails, NUL) as a hex escape, so the
      // error message itself stays clean text.
      std::string shown;
      if (c >= 0x20 && c < 0x7f) {
        shown = std::string(1, c);
      } else {
        char hex[8];
        std::snprintf(hex, sizeof(hex), "\\x%02x",
                      static_cast<unsigned char>(c));
        shown = hex;
      }
      return Fail("unexpected character '" + shown + "' at position " +
                  std::to_string(i));
    }
    return {TokenKind::kEnd, {}, text_.size()};
  }

  /// Scans the rest of the text, so a lexical error past the point where
  /// parsing stopped is still found.
  void Drain() {
    while (Next().kind != TokenKind::kEnd) {
    }
  }

  /// OK, or the first lexical error.
  const Status& error() const { return error_; }

 private:
  Token Emit(TokenKind kind, size_t start, size_t length) {
    pos_ = start + length;
    return {kind, text_.substr(start, length), start};
  }
  Token Fail(std::string message) {
    error_ = Status::Error(std::move(message));
    pos_ = text_.size();
    return {TokenKind::kEnd, {}, text_.size()};
  }

  std::string_view text_;
  size_t pos_ = 0;
  Status error_;
};

bool IsVariableName(std::string_view name) {
  return !name.empty() &&
         ((name[0] >= 'a' && name[0] <= 'z') || name[0] == '_');
}

class Parser {
 public:
  Parser(Vocabulary& vocab, std::string_view text)
      : vocab_(vocab), lexer_(text) {}

  // --- token stream helpers ----------------------------------------------

  // Two tokens of lookahead, pulled from the lexer on demand.
  Token Peek(size_t ahead = 0) {
    while (buffered_ <= ahead) ahead_[buffered_++] = lexer_.Next();
    return ahead_[ahead];
  }
  Token Next() {
    const Token t = Peek();
    ahead_[0] = ahead_[1];
    --buffered_;
    return t;
  }
  // Returns true if it skipped any newline.
  bool SkipNewlines() {
    bool skipped = false;
    while (Peek().kind == TokenKind::kNewline) {
      Next();
      skipped = true;
    }
    return skipped;
  }
  bool AtEnd() { return Peek().kind == TokenKind::kEnd; }
  Status ErrorAt(const Token& token, const std::string& what) {
    return Status::Error(what + " near position " +
                         std::to_string(token.position) + " ('" +
                         std::string(token.text) + "')");
  }

  // The lexer's position and the lookahead, for backtracking.
  struct Checkpoint {
    Lexer lexer;
    Token ahead[2];
    size_t buffered;
  };
  Checkpoint Save() const {
    return {lexer_, {ahead_[0], ahead_[1]}, buffered_};
  }
  void Restore(const Checkpoint& checkpoint) {
    lexer_ = checkpoint.lexer;
    ahead_[0] = checkpoint.ahead[0];
    ahead_[1] = checkpoint.ahead[1];
    buffered_ = checkpoint.buffered;
  }

  /// OK, or the first lexical error anywhere in the text once `DrainLexer`
  /// ran (or the parse reached the end).
  const Status& LexerError() const { return lexer_.error(); }
  void DrainLexer() { lexer_.Drain(); }

  // --- grammar -------------------------------------------------------------

  // atom := ident '(' [term {',' term}] ')'
  // Interns the arguments left to right, then the predicate, and leaves the
  // arguments in `args_`.  The first variable argument is stored into
  // `*first_variable` if that is still kNoTerm.
  Status ParseAtomInto(PredicateId* predicate, TermId* first_variable) {
    const Token name = Next();
    if (name.kind != TokenKind::kIdent) {
      return ErrorAt(name, "expected predicate name");
    }
    if (Next().kind != TokenKind::kLParen) {
      return ErrorAt(Peek(), "expected '(' after predicate name");
    }
    args_.clear();
    if (Peek().kind != TokenKind::kRParen) {
      for (;;) {
        const Token term = Next();
        if (term.kind != TokenKind::kIdent) {
          return ErrorAt(term, "expected term");
        }
        if (args_.size() >= kMaxArity) {
          return ErrorAt(term, "atom of predicate '" + std::string(name.text) +
                                   "' exceeds the maximum arity of " +
                                   std::to_string(kMaxArity));
        }
        if (IsVariableName(term.text)) {
          const TermId var = vocab_.Variable(term.text);
          if (*first_variable == kNoTerm) *first_variable = var;
          args_.push_back(var);
        } else {
          args_.push_back(vocab_.Constant(term.text));
        }
        if (Peek().kind == TokenKind::kComma) {
          Next();
          continue;
        }
        break;
      }
    }
    if (Next().kind != TokenKind::kRParen) {
      return ErrorAt(Peek(), "expected ')'");
    }
    const uint32_t arity = static_cast<uint32_t>(args_.size());
    *predicate = vocab_.FindOrAddPredicate(name.text, arity);
    const uint32_t declared = vocab_.PredicateArity(*predicate);
    if (declared != arity) {
      return ErrorAt(name, "predicate '" + std::string(name.text) +
                               "' used with arity " + std::to_string(arity) +
                               " but declared " + std::to_string(declared));
    }
    return Status::Ok();
  }

  Result<Atom> ParseAtom() {
    PredicateId predicate;
    TermId first_variable = kNoTerm;
    const Status status = ParseAtomInto(&predicate, &first_variable);
    if (!status.ok()) return status;
    return Atom(predicate, args_);
  }

  Status ConjunctionCapError() {
    return ErrorAt(Peek(), "conjunction exceeds the maximum of " +
                               std::to_string(kMaxAtomsPerConjunction) +
                               " atoms");
  }

  // atoms := atom {',' atom}; newlines are not atom separators.
  Result<std::vector<Atom>> ParseAtoms() {
    std::vector<Atom> atoms;
    for (;;) {
      if (atoms.size() >= kMaxAtomsPerConjunction) return ConjunctionCapError();
      Result<Atom> atom = ParseAtom();
      if (!atom.ok()) return atom.status();
      atoms.push_back(std::move(atom.value()));
      if (Peek().kind == TokenKind::kComma) {
        Next();
        SkipNewlines();
        continue;
      }
      break;
    }
    return atoms;
  }

  // rule := [label ':'] body '->' head
  Result<Tgd> ParseOneRule() {
    std::string label;
    if (Peek().kind == TokenKind::kIdent &&
        Peek(1).kind == TokenKind::kColon) {
      label = std::string(Next().text);
      Next();  // ':'
      SkipNewlines();
    }
    std::vector<Atom> body;
    if (Peek().kind == TokenKind::kIdent && Peek().text == "true" &&
        Peek(1).kind != TokenKind::kLParen) {
      Next();
    } else {
      Result<std::vector<Atom>> parsed = ParseAtoms();
      if (!parsed.ok()) return parsed.status();
      body = std::move(parsed.value());
    }
    if (Next().kind != TokenKind::kArrow) {
      return ErrorAt(Peek(), "expected '->'");
    }
    SkipNewlines();
    std::vector<TermId> existentials;
    if (Peek().kind == TokenKind::kIdent && Peek().text == "exists") {
      Next();
      for (;;) {
        const Token v = Next();
        if (v.kind != TokenKind::kIdent || !IsVariableName(v.text)) {
          return ErrorAt(v, "expected existential variable name");
        }
        const TermId var = vocab_.Variable(v.text);
        // MakeTgd treats an existential occurring in the body as a
        // programming error and aborts; here it is *input*, so reject it
        // with a positioned parse error instead.
        for (const Atom& atom : body) {
          if (atom.ContainsTerm(var)) {
            return ErrorAt(v, "existential variable '" + std::string(v.text) +
                                  "' occurs in the rule body");
          }
        }
        existentials.push_back(var);
        if (Peek().kind == TokenKind::kComma) {
          Next();
          continue;
        }
        break;
      }
      if (Peek().kind == TokenKind::kDot) Next();
      SkipNewlines();
    }
    Result<std::vector<Atom>> head = ParseAtoms();
    if (!head.ok()) return head.status();
    return MakeTgd(vocab_, std::move(body), std::move(head.value()),
                   std::move(existentials), std::move(label));
  }

  Result<Theory> ParseWholeTheory(std::string name) {
    Theory theory;
    theory.name = std::move(name);
    for (;;) {
      SkipNewlines();
      while (Peek().kind == TokenKind::kSemicolon) {
        Next();
        SkipNewlines();
      }
      if (AtEnd()) break;
      if (theory.rules.size() >= kMaxRulesPerTheory) {
        return ErrorAt(Peek(), "theory exceeds the maximum of " +
                                   std::to_string(kMaxRulesPerTheory) +
                                   " rules");
      }
      Result<Tgd> rule = ParseOneRule();
      if (!rule.ok()) return rule.status();
      theory.rules.push_back(std::move(rule.value()));
      if (Peek().kind != TokenKind::kSemicolon &&
          Peek().kind != TokenKind::kNewline && !AtEnd()) {
        return ErrorAt(Peek(), "expected ';' or newline between rules");
      }
    }
    return theory;
  }

  Result<ConjunctiveQuery> ParseWholeQuery() {
    SkipNewlines();
    ConjunctiveQuery query;
    // Optional `name(v1,...,vk) :-` answer-variable header.  The header
    // name is arbitrary and is *not* interned as a predicate (so `q(x)`
    // and `q(x,y)` headers in the same vocabulary do not clash).
    const Checkpoint save = Save();
    if (Peek().kind == TokenKind::kIdent &&
        Peek(1).kind == TokenKind::kLParen) {
      std::vector<TermId> header_vars;
      bool header_ok = true;
      Next();  // header name
      Next();  // '('
      if (Peek().kind != TokenKind::kRParen) {
        for (;;) {
          const Token term = Peek();
          if (term.kind != TokenKind::kIdent) {
            header_ok = false;
            break;
          }
          Next();
          header_vars.push_back(IsVariableName(term.text)
                                    ? vocab_.Variable(term.text)
                                    : vocab_.Constant(term.text));
          if (Peek().kind == TokenKind::kComma) {
            Next();
            continue;
          }
          break;
        }
      }
      if (header_ok && Peek().kind == TokenKind::kRParen) {
        Next();
      } else {
        header_ok = false;
      }
      if (header_ok && Peek().kind == TokenKind::kTurnstile) {
        Next();
        SkipNewlines();
        for (TermId v : header_vars) {
          if (!vocab_.IsVariable(v)) {
            return Status::Error(
                "answer positions of a query must hold variables");
          }
          query.answer_vars.push_back(v);
        }
      } else {
        Restore(save);  // Boolean query beginning with an atom.
      }
    }
    Result<std::vector<Atom>> atoms = ParseAtoms();
    if (!atoms.ok()) return atoms.status();
    query.atoms = std::move(atoms.value());
    SkipNewlines();
    if (!AtEnd()) return ErrorAt(Peek(), "trailing input after query");
    // Answer variables must occur in the body.
    for (TermId v : query.answer_vars) {
      bool found = false;
      for (const Atom& atom : query.atoms) {
        if (atom.ContainsTerm(v)) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::Error("answer variable " + vocab_.TermToString(v) +
                             " does not occur in the query body");
      }
    }
    return query;
  }

  // facts := atom {sep atom}, where sep is ',' and any newlines after it
  // or, when `newline_separates`, one or more newlines alone.  Atoms are
  // interned exactly as ParseAtom interns them and appended to one
  // RowBlock, which one InsertBatch commits once the whole text parsed.
  // Errors keep ParseAtoms' precedence: a parse error anywhere beats a
  // variable, which beats trailing input.  When newlines separate, the
  // conjunction cap counts the atoms of one line.
  Result<FactSet> ParseWholeFacts(bool newline_separates) {
    SkipNewlines();
    FactSet facts;
    if (AtEnd()) return facts;
    RowBlock rows;
    TermId first_variable = kNoTerm;
    size_t conjunction = 0;
    for (;;) {
      if (conjunction >= kMaxAtomsPerConjunction) return ConjunctionCapError();
      PredicateId predicate;
      const Status atom = ParseAtomInto(&predicate, &first_variable);
      if (!atom.ok()) return atom;
      rows.Append(predicate, args_.data(), args_.size());
      ++conjunction;
      if (Peek().kind == TokenKind::kComma) {
        Next();
        if (SkipNewlines() && newline_separates) conjunction = 0;
        continue;
      }
      if (newline_separates && SkipNewlines()) {
        conjunction = 0;
        if (AtEnd()) break;
        continue;
      }
      break;
    }
    if (first_variable != kNoTerm) {
      return Status::Error("fact contains variable " +
                           vocab_.TermToString(first_variable));
    }
    SkipNewlines();
    if (!AtEnd()) return ErrorAt(Peek(), "trailing input after facts");
    if (!facts.InsertBatch(rows, nullptr).has_value()) {
      return Status::Error(
          "injected failure at failpoint 'fact_set.insert_batch'");
    }
    return facts;
  }

 private:
  Vocabulary& vocab_;
  Lexer lexer_;
  Token ahead_[2];
  size_t buffered_ = 0;
  std::vector<TermId> args_;  // ParseAtomInto's arguments, reused
};

// Runs `parse` over `text`.  A lexical error anywhere in the text wins over
// whatever `parse` returned, and leaves `vocab` as it was, exactly as if the
// whole text had been tokenized before parsing began: after a parse error
// the rest of the text is drained through the lexer, and a lexical error
// rolls back every name the parse interned.
template <typename T, typename Parse>
Result<T> RunParser(Vocabulary& vocab, std::string_view text, Parse parse) {
  const Vocabulary::NameMark mark = vocab.MarkNames();
  Parser parser(vocab, text);
  Result<T> result = parse(parser);
  if (!result.ok()) parser.DrainLexer();
  if (parser.LexerError().ok()) return result;
  vocab.RollBackNames(mark);
  return parser.LexerError();
}

}  // namespace

Result<Tgd> ParseRule(Vocabulary& vocab, std::string_view text) {
  return RunParser<Tgd>(vocab, text, [](Parser& p) -> Result<Tgd> {
    p.SkipNewlines();
    Result<Tgd> rule = p.ParseOneRule();
    if (!rule.ok()) return rule;
    p.SkipNewlines();
    if (!p.AtEnd()) return Status::Error("trailing input after rule");
    return rule;
  });
}

Result<Theory> ParseTheory(Vocabulary& vocab, std::string_view text,
                           std::string name) {
  return RunParser<Theory>(vocab, text, [&name](Parser& p) {
    return p.ParseWholeTheory(std::move(name));
  });
}

Result<ConjunctiveQuery> ParseQuery(Vocabulary& vocab, std::string_view text) {
  return RunParser<ConjunctiveQuery>(
      vocab, text, [](Parser& p) { return p.ParseWholeQuery(); });
}

Result<FactSet> ParseFacts(Vocabulary& vocab, std::string_view text) {
  return RunParser<FactSet>(vocab, text, [](Parser& p) {
    return p.ParseWholeFacts(/*newline_separates=*/false);
  });
}

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::Error("cannot open '" + path + "'");
  }
  std::string contents;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, got);
  }
  std::fclose(file);
  return contents;
}

}  // namespace

Result<Theory> LoadTheoryFile(Vocabulary& vocab, const std::string& path) {
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) return contents.status();
  return ParseTheory(vocab, contents.value(), path);
}

Result<FactSet> LoadFactsFile(Vocabulary& vocab, const std::string& path) {
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) return contents.status();
  return RunParser<FactSet>(vocab, contents.value(), [](Parser& p) {
    return p.ParseWholeFacts(/*newline_separates=*/true);
  });
}

}  // namespace frontiers
