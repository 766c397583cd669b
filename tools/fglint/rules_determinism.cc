// determinism: bitwise-reproducibility hazards in the hot tree.
//
// The repo's headline invariant is bitwise-identical logits/loss across
// thread counts, ISA levels, fusion, and backends. Three classes of
// code break that silently, so in src/exec, src/hdg, and src/core they are
// errors, not style nits:
//
//   * iterating an unordered_map/unordered_set — bucket order depends on the
//     allocator and libstdc++ version, so any fold over it reorders float
//     adds;
//   * ordering by pointer value (std::less/greater over pointer keys,
//     std::owner_less) — addresses change run to run;
//   * seeding from time or hardware entropy (srand, rand, random_device,
//     time(nullptr)) — the RNG story is fixed per-vertex seeds.

#include <set>

#include "tools/fglint/rules.h"

namespace fgcheck {

namespace {

bool InScope(const std::string& rel) {
  return rel.rfind("src/exec/", 0) == 0 || rel.rfind("src/hdg/", 0) == 0 ||
         rel.rfind("src/core/", 0) == 0;
}

bool IsUnorderedType(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Tok::kPunct && t.text == text;
}

// Collects identifiers declared with an unordered container type. Members
// are declared in headers and iterated in .cc files, so the set is shared
// across all in-scope files before the flagging pass runs.
void CollectUnorderedNames(const FileIndex& fi, std::set<std::string>* names) {
  const std::vector<Token>& toks = fi.lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || !IsUnorderedType(toks[i].text) ||
        !IsPunct(toks[i + 1], "<")) {
      continue;
    }
    std::size_t close = MatchingClose(toks, i + 1);
    if (close >= toks.size()) {
      continue;
    }
    // Skip declarator decorations to the variable name.
    std::size_t j = close + 1;
    while (j < toks.size() && toks[j].kind == Tok::kPunct &&
           (toks[j].text == "*" || toks[j].text == "&" || toks[j].text == "&&")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Tok::kIdent) {
      names->insert(toks[j].text);
    }
  }
}

void FlagUnorderedIteration(const FileIndex& fi,
                            const std::set<std::string>& names, Context* ctx) {
  const std::vector<Token>& toks = fi.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose sequence expression mentions an unordered name:
    // for ( decl : expr )
    if (toks[i].kind == Tok::kIdent && toks[i].text == "for" &&
        i + 1 < toks.size() && IsPunct(toks[i + 1], "(")) {
      const std::size_t close = MatchingClose(toks, i + 1);
      std::size_t colon = 0;
      for (std::size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (IsPunct(toks[j], ":")) {
          colon = j;
          break;
        }
        if (IsPunct(toks[j], ";")) {
          break;  // classic for, not range-for
        }
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j < close && j < toks.size(); ++j) {
          if (toks[j].kind == Tok::kIdent && names.count(toks[j].text) > 0) {
            ctx->Emit(fi.rel, toks[j].line, "determinism",
                      "range-for over unordered container '" + toks[j].text +
                          "' — bucket order is not deterministic across "
                          "allocators/libstdc++ versions; iterate a sorted "
                          "key vector or switch to std::map");
            break;
          }
        }
      }
    }
    // Explicit iterator walk: name.begin() / name.cbegin().
    if (toks[i].kind == Tok::kIdent && names.count(toks[i].text) > 0 &&
        i + 3 < toks.size() && IsPunct(toks[i + 1], ".") &&
        toks[i + 2].kind == Tok::kIdent &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin") &&
        IsPunct(toks[i + 3], "(")) {
      ctx->Emit(fi.rel, toks[i].line, "determinism",
                "iterator walk over unordered container '" + toks[i].text +
                    "' — bucket order is not deterministic; materialize and "
                    "sort the keys first");
    }
  }
}

void FlagPointerOrdering(const FileIndex& fi, Context* ctx) {
  const std::vector<Token>& toks = fi.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) {
      continue;
    }
    if (toks[i].text == "owner_less") {
      ctx->Emit(fi.rel, toks[i].line, "determinism",
                "std::owner_less orders by control-block address — "
                "nondeterministic across runs; key on a stable id instead");
      continue;
    }
    if ((toks[i].text == "less" || toks[i].text == "greater" ||
         toks[i].text == "hash") &&
        i + 1 < toks.size() && IsPunct(toks[i + 1], "<")) {
      const std::size_t close = MatchingClose(toks, i + 1);
      for (std::size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (IsPunct(toks[j], "*")) {
          ctx->Emit(fi.rel, toks[i].line, "determinism",
                    "std::" + toks[i].text + " over a pointer type orders/"
                    "hashes by address — nondeterministic across runs; "
                    "compare a stable field instead");
          break;
        }
      }
    }
  }
}

void FlagTimeSeeding(const FileIndex& fi, Context* ctx) {
  const std::vector<Token>& toks = fi.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) {
      continue;
    }
    const bool call = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    if ((toks[i].text == "srand" || toks[i].text == "rand") && call) {
      ctx->Emit(fi.rel, toks[i].line, "determinism",
                toks[i].text + "() has process-global hidden state and a "
                "libc-defined sequence — use the per-vertex SplitMix64 "
                "streams from src/util/rng.h");
      continue;
    }
    if (toks[i].text == "random_device") {
      ctx->Emit(fi.rel, toks[i].line, "determinism",
                "std::random_device draws hardware entropy — every run "
                "differs; seeds must come from the run config");
      continue;
    }
    if (toks[i].text == "time" && call && i + 2 < toks.size() &&
        (toks[i + 2].text == "nullptr" || toks[i + 2].text == "NULL" ||
         toks[i + 2].text == "0")) {
      ctx->Emit(fi.rel, toks[i].line, "determinism",
                "time(nullptr) as a seed changes every second — seeds must "
                "come from the run config");
    }
  }
}

}  // namespace

void RunDeterminismRules(Context* ctx) {
  std::set<std::string> unordered_names;
  for (const FileIndex& fi : ctx->index.files) {
    if (InScope(fi.rel)) {
      CollectUnorderedNames(fi, &unordered_names);
    }
  }
  for (const FileIndex& fi : ctx->index.files) {
    if (!InScope(fi.rel)) {
      continue;
    }
    FlagUnorderedIteration(fi, unordered_names, ctx);
    FlagPointerOrdering(fi, ctx);
    FlagTimeSeeding(fi, ctx);
  }
}

}  // namespace fgcheck
