#ifndef FRONTIERS_TGD_PARSER_H_
#define FRONTIERS_TGD_PARSER_H_

#include <string_view>

#include "base/status.h"
#include "base/vocabulary.h"
#include "tgd/conjunctive_query.h"
#include "tgd/tgd.h"

namespace frontiers {

/// Text syntax for rules, theories and queries.
///
/// Rules:
///   `E(x,y) -> exists z . E(y,z)`
///   `mother: Human(y) -> exists z . Mother(y,z)`     (optional label)
///   `true -> exists z . R(x,z)`                      (x ranges over the
///                                                     active domain; the
///                                                     paper's (pins) form)
///   `E(x,y), R(z,y) -> R(y,z)`                       (Datalog rule)
/// The `.` after the existential variable list is optional.  Multi-head
/// rules simply list several atoms after `->`.
///
/// Theories: rules separated by `;` or newlines; `#` starts a comment.
///
/// Queries:
///   `q(x,y) :- R(x,z), G(z,y)`   (free variables x,y; the head name is
///                                 arbitrary and ignored)
///   `R(x,z), G(z,y)`             (Boolean CQ)
///
/// Term convention: an identifier starting with a lowercase letter or `_`
/// is a variable; identifiers starting with an uppercase letter or a digit
/// are constants.  Predicates are identified by position (an identifier
/// directly followed by `(`), so uppercase predicate names do not clash
/// with constants.  Predicate arities are fixed at first use and checked
/// afterwards.
///
/// Errors: a text that fails to lex (a stray byte, an identifier over 4,096
/// characters) reports the first such error wherever it occurs and leaves
/// the vocabulary as it was.  After any other error, the names interned
/// before it stay interned.

/// Parses a single rule.
Result<Tgd> ParseRule(Vocabulary& vocab, std::string_view text);

/// Parses a theory (a sequence of rules).
Result<Theory> ParseTheory(Vocabulary& vocab, std::string_view text,
                           std::string name = "");

/// Parses a conjunctive query.
Result<ConjunctiveQuery> ParseQuery(Vocabulary& vocab, std::string_view text);

/// Parses a comma-separated list of ground atoms into a fact set, e.g.
/// `E(A,B), E(B,C)`.  Newlines may follow a comma, so the rendering of
/// `testing::FactsToText` (`E(A,B),\nE(B,C)\n`) parses, but a newline
/// alone does not separate atoms.  Variables are rejected.  Names are
/// interned in text order and the atoms are committed with one
/// `FactSet::InsertBatch`.
Result<FactSet> ParseFacts(Vocabulary& vocab, std::string_view text);

/// Reads and parses a theory file (same syntax as ParseTheory).
Result<Theory> LoadTheoryFile(Vocabulary& vocab, const std::string& path);

/// Reads and parses a facts file in one pass.  Atoms are separated by a
/// comma, by one or more newlines, or by a comma followed by newlines, so
/// every `testing::FactsToText` rendering loads; `#` comments are allowed.
/// Error positions count bytes from the start of the file.  The cap of
/// 65,536 atoms per conjunction applies per line, not per file.
Result<FactSet> LoadFactsFile(Vocabulary& vocab, const std::string& path);

}  // namespace frontiers

#endif  // FRONTIERS_TGD_PARSER_H_
