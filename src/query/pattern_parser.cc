#include "query/pattern_parser.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <vector>

#include "common/strings.h"

namespace seqdet::query {

namespace {

struct Token {
  std::string text;
  bool quoted = false;
  /// Grammar punctuation: one of ( ) | ! + , -> <= — never an activity
  /// name unless quoted.
  bool punct = false;
};

bool IsPunctChar(char c) {
  return c == '(' || c == ')' || c == '|' || c == '!' || c == '+' || c == ',';
}

struct Tokenizer {
  std::string_view input;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < input.size() &&
           std::isspace(static_cast<unsigned char>(input[pos]))) {
      ++pos;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos >= input.size();
  }

  /// Returns the next token: grammar punctuation, a quoted string (sans
  /// quotes, marked quoted so keywords and punctuation can be used as
  /// activity names), or a bare word.
  Result<Token> Next() {
    SkipSpace();
    if (pos >= input.size()) {
      return Status::InvalidArgument("unexpected end of query");
    }
    char c = input[pos];
    if (c == '"') {
      size_t close = input.find('"', pos + 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated quote");
      }
      Token token{std::string(input.substr(pos + 1, close - pos - 1)), true,
                  false};
      pos = close + 1;
      return token;
    }
    if (input.substr(pos, 2) == "->" || input.substr(pos, 2) == "<=") {
      pos += 2;
      return Token{std::string(input.substr(pos - 2, 2)), false, true};
    }
    if (IsPunctChar(c)) {
      ++pos;
      return Token{std::string(1, c), false, true};
    }
    size_t start = pos;
    while (pos < input.size() &&
           !std::isspace(static_cast<unsigned char>(input[pos])) &&
           input[pos] != '"' && !IsPunctChar(input[pos]) &&
           input.substr(pos, 2) != "->" && input.substr(pos, 2) != "<=") {
      ++pos;
    }
    if (pos == start) {
      return Status::InvalidArgument("empty token");
    }
    return Token{std::string(input.substr(start, pos - start)), false, false};
  }

  /// Consumes the grammar punctuation `punct` when it is the next token.
  /// Punctuation is never quoted and no longer token starts with it, so
  /// matching the raw input is exact.
  bool Accept(std::string_view punct) {
    SkipSpace();
    if (input.substr(pos, punct.size()) != punct) return false;
    pos += punct.size();
    return true;
  }

  /// Peeks without consuming.
  Result<Token> Peek() {
    size_t saved = pos;
    auto token = Next();
    pos = saved;
    return token;
  }
};

bool IsKeyword(const Token& t) {
  return !t.quoted && (t.text == "within" || t.text == "gap");
}

/// Resolves an activity-name token; punctuation and keywords must be
/// quoted to act as names.
Result<eventlog::ActivityId> ResolveName(
    const Token& token, const eventlog::ActivityDictionary& dictionary) {
  if (token.punct || IsKeyword(token)) {
    return Status::InvalidArgument("expected an activity name, got '" +
                                   token.text + "'");
  }
  eventlog::ActivityId id = dictionary.Lookup(token.text);
  if (id == eventlog::kInvalidActivity) {
    return Status::NotFound("unknown activity: " + token.text);
  }
  return id;
}

/// `within` / `gap <=` bounds: a non-negative integer with an optional
/// s/m/h/d unit suffix (`5m` == 300). Inclusive semantics are the
/// evaluator's business (pattern.h); the parser just produces seconds.
Result<eventlog::Timestamp> ParseDuration(const Token& token,
                                          const char* what) {
  auto bad = [&] {
    return Status::InvalidArgument(std::string("bad '") + what +
                                   "' bound: " + token.text);
  };
  if (token.punct || token.quoted || token.text.empty()) return bad();
  std::string digits = token.text;
  int64_t multiplier = 1;
  switch (digits.back()) {
    case 's': multiplier = 1; digits.pop_back(); break;
    case 'm': multiplier = 60; digits.pop_back(); break;
    case 'h': multiplier = 3600; digits.pop_back(); break;
    case 'd': multiplier = 86400; digits.pop_back(); break;
    default: break;
  }
  int64_t value;
  if (digits.empty() || !ParseInt64(digits, &value) || value < 0) {
    return bad();
  }
  if (value > std::numeric_limits<int64_t>::max() / multiplier) {
    return bad();
  }
  return value * multiplier;
}

/// One element: `!? symbol +?` with symbol a name or a `(a|b|...)` group.
Result<PatternElement> ParseElement(Tokenizer& tokens,
                                    const eventlog::ActivityDictionary&
                                        dictionary) {
  PatternElement element;
  element.negated = tokens.Accept("!");
  if (tokens.Accept("(")) {
    for (;;) {
      SEQDET_ASSIGN_OR_RETURN(Token name, tokens.Next());
      SEQDET_ASSIGN_OR_RETURN(eventlog::ActivityId id,
                              ResolveName(name, dictionary));
      element.alternatives.push_back(id);
      if (tokens.Accept(")")) break;
      if (!tokens.Accept("|")) {
        SEQDET_ASSIGN_OR_RETURN(Token sep, tokens.Next());
        return Status::InvalidArgument("expected '|' or ')' in group, got '" +
                                       sep.text + "'");
      }
    }
  } else {
    SEQDET_ASSIGN_OR_RETURN(Token token, tokens.Next());
    SEQDET_ASSIGN_OR_RETURN(eventlog::ActivityId id,
                            ResolveName(token, dictionary));
    element.alternatives.push_back(id);
  }
  element.kleene = tokens.Accept("+");
  if (element.negated && element.kleene) {
    return Status::InvalidArgument("a negated element cannot carry '+'");
  }
  // Canonical form: alternatives sorted and deduplicated ((A|B) == (B|A),
  // and (A|A) collapses to A).
  std::sort(element.alternatives.begin(), element.alternatives.end());
  element.alternatives.erase(
      std::unique(element.alternatives.begin(), element.alternatives.end()),
      element.alternatives.end());
  return element;
}

/// Trailing `within` / `gap <=` constraints straight into the pattern.
Status ParseConstraints(Tokenizer& tokens, ExtendedPattern* pattern) {
  while (!tokens.AtEnd()) {
    SEQDET_ASSIGN_OR_RETURN(Token keyword, tokens.Next());
    if (!keyword.quoted && keyword.text == "within") {
      SEQDET_ASSIGN_OR_RETURN(Token value, tokens.Next());
      SEQDET_ASSIGN_OR_RETURN(pattern->max_span,
                              ParseDuration(value, "within"));
    } else if (!keyword.quoted && keyword.text == "gap") {
      SEQDET_ASSIGN_OR_RETURN(Token op, tokens.Next());
      if (!op.punct || op.text != "<=") {
        return Status::InvalidArgument("expected '<=' after 'gap'");
      }
      SEQDET_ASSIGN_OR_RETURN(Token value, tokens.Next());
      SEQDET_ASSIGN_OR_RETURN(pattern->max_gap, ParseDuration(value, "gap"));
    } else {
      return Status::InvalidArgument("unknown constraint: " + keyword.text);
    }
  }
  return Status::OK();
}

/// `response(A, B)` / `precedence(A, B)` / `absence(A)` — recognized only
/// when the unquoted keyword is immediately followed by '('; otherwise the
/// word parses as an ordinary activity name.
Result<std::optional<ExtendedPattern>> TryParseTemplate(
    Tokenizer& tokens, const eventlog::ActivityDictionary& dictionary) {
  size_t saved = tokens.pos;
  auto head = tokens.Next();
  if (!head.ok() || head->quoted || head->punct) {
    tokens.pos = saved;
    return std::optional<ExtendedPattern>{};
  }
  ComplianceRule rule;
  size_t arity;
  if (head->text == "response") {
    rule = ComplianceRule::kResponse;
    arity = 2;
  } else if (head->text == "precedence") {
    rule = ComplianceRule::kPrecedence;
    arity = 2;
  } else if (head->text == "absence") {
    rule = ComplianceRule::kAbsence;
    arity = 1;
  } else {
    tokens.pos = saved;
    return std::optional<ExtendedPattern>{};
  }
  auto open = tokens.Peek();
  if (!open.ok() || !open->punct || open->text != "(") {
    tokens.pos = saved;  // e.g. an activity actually named "response"
    return std::optional<ExtendedPattern>{};
  }
  IgnoreStatus(tokens.Next());  // consume '('
  std::vector<eventlog::ActivityId> args;
  for (size_t i = 0; i < arity; ++i) {
    if (i > 0) {
      SEQDET_ASSIGN_OR_RETURN(Token comma, tokens.Next());
      if (!comma.punct || comma.text != ",") {
        return Status::InvalidArgument("expected ',' in " + head->text +
                                       "(...), got '" + comma.text + "'");
      }
    }
    SEQDET_ASSIGN_OR_RETURN(Token name, tokens.Next());
    SEQDET_ASSIGN_OR_RETURN(eventlog::ActivityId id,
                            ResolveName(name, dictionary));
    args.push_back(id);
  }
  SEQDET_ASSIGN_OR_RETURN(Token close, tokens.Next());
  if (!close.punct || close.text != ")") {
    return Status::InvalidArgument("expected ')' to close " + head->text +
                                   "(...), got '" + close.text + "'");
  }
  return std::optional<ExtendedPattern>{
      CompliancePattern(rule, args[0], arity > 1 ? args[1] : 0)};
}

}  // namespace

Result<ExtendedPattern> ParseExtendedPatternQuery(
    std::string_view text, const eventlog::ActivityDictionary& dictionary) {
  Tokenizer tokens{text};
  if (tokens.AtEnd()) {
    return Status::InvalidArgument("empty query");
  }

  SEQDET_ASSIGN_OR_RETURN(std::optional<ExtendedPattern> templ,
                          TryParseTemplate(tokens, dictionary));
  ExtendedPattern pattern;
  if (templ.has_value()) {
    pattern = *std::move(templ);
  } else {
    for (;;) {
      SEQDET_ASSIGN_OR_RETURN(PatternElement element,
                              ParseElement(tokens, dictionary));
      pattern.elements.push_back(std::move(element));
      if (tokens.AtEnd()) break;
      SEQDET_ASSIGN_OR_RETURN(Token next, tokens.Peek());
      if (IsKeyword(next)) break;  // constraints begin
      if (next.punct && next.text == "->") {
        IgnoreStatus(tokens.Next());  // consume (cannot fail; peeked)
        // A dangling arrow falls through to ParseElement, which reports
        // "unexpected end of query".
      }
    }
  }
  SEQDET_RETURN_IF_ERROR(ParseConstraints(tokens, &pattern));
  SEQDET_RETURN_IF_ERROR(pattern.Validate());
  return pattern;
}

Result<ParsedQuery> ParsePatternQuery(
    std::string_view text, const eventlog::ActivityDictionary& dictionary) {
  SEQDET_ASSIGN_OR_RETURN(ExtendedPattern extended,
                          ParseExtendedPatternQuery(text, dictionary));
  if (!extended.IsPlain()) {
    return Status::InvalidArgument(
        "extended operators (|, +, !) are only supported by detection "
        "queries; this endpoint takes a plain sequence");
  }
  ParsedQuery query;
  query.pattern = extended.AsPlain();
  query.constraints.max_span = extended.max_span;
  query.constraints.max_gap = extended.max_gap;
  return query;
}

}  // namespace seqdet::query
