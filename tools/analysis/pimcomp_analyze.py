#!/usr/bin/env python3
"""pimcomp-analyze — the repo's static-analysis suite (stdlib only, no pip
installs required; clang.cindex is used opportunistically when present).

Four checkers run over the tree from one driver:

  fingerprint   Cache-key completeness: for every struct participating in
                cache identity (tools/analysis/fingerprint_contracts.json),
                every field must be referenced by every listed
                fingerprint()/to_json/from_json body, or carry an explicit
                `// pimcomp-fp-exempt: <rationale>` marker. Exclusion
                contracts invert the rule: fields that are execution
                environment (CacheConfig) must NOT leak into fingerprint
                bodies. Stale markers (exempt but covered everywhere) fail
                too, so the marker set stays honest.

  wire-schema   Wire-protocol discipline: every JSON key string read or
                written at a key position in the serving/fleet codecs must
                appear in the versioned manifest
                (tools/analysis/wire_schema.json), every manifest entry must
                still be referenced and carry one line of documentation.

  layering      Subsystem include DAG: src/<dir> ranks are declared in
                tools/analysis/layers.json; an include whose target ranks
                above the including file's directory (upward) or equal but
                different (lateral) fails unless the include carries a
                `// pimcomp-layer-exempt: <rationale>` marker. Markers on
                compliant includes fail as stale.

  concurrency   The PR-7 concurrency lint (no naked std::mutex family, raw
                std::thread types, .detach(), synchronization includes
                outside src/common/thread_annotations.hpp, no unreviewed
                mutable statics), absorbed into this tool; the
                concurrency_lint ctest case runs it alone.

Engines: `--engine regex` (default fallback) runs everywhere on the stdlib;
`--engine libclang` parses struct definitions from the clang AST via
clang.cindex + compile_commands.json, so macros or unusual declarator
syntax cannot fool the field lists (body coverage matching is token-based
in both engines — identifiers referenced inside the function body).
`--engine auto` prefers libclang and falls back to regex with a notice.

Exit status: 0 clean, 1 findings, 2 configuration/usage error. Every
finding is one `path:line: [checker] message` line; `--json-report` writes
the same findings machine-readably.
"""

import argparse
import json
import pathlib
import re
import sys

DEFAULT_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
ANALYSIS_DIR_NAME = pathlib.Path("tools") / "analysis"

FP_EXEMPT_MARKER = "pimcomp-fp-exempt:"
LAYER_EXEMPT_MARKER = "pimcomp-layer-exempt:"
CONCURRENCY_MARKER = "pimcomp-lint: internally-synchronized"

CHECKER_NAMES = ("fingerprint", "wire-schema", "layering", "concurrency")


class ConfigError(Exception):
    """A checker's configuration (not the tree) is broken."""


class Finding:
    def __init__(self, path, line, checker, message):
        self.path = path  # pathlib.Path, relative to the analysis root
        self.line = line  # 1-based; 0 when no line applies
        self.checker = checker
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.checker}] {self.message}"

    def to_json(self):
        return {
            "file": str(self.path),
            "line": self.line,
            "checker": self.checker,
            "message": self.message,
        }


# ---------------------------------------------------------------------------
# Text utilities.
# ---------------------------------------------------------------------------


def strip_comments(text):
    """Blank out // and /* */ comments and string/char literals, preserving
    line structure, so tokens in prose or strings don't fire. Used by the
    concurrency and layering checkers and for struct/function extraction;
    the wire-schema checker uses strip_comments_keep_strings below."""
    return _strip(text, keep_strings=False)


def strip_comments_keep_strings(text):
    """Like strip_comments but string literal contents survive — the
    wire-schema checker matches JSON key literals."""
    return _strip(text, keep_strings=True)


def _strip(text, keep_strings):
    out = []
    i, n = 0, len(text)
    mode = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == "'" and i > 0 and (text[i - 1].isalnum()
                                       or text[i - 1] == "_"):
                # C++14 digit separator (1'000'000) or literal suffix, not
                # a character literal.
                out.append(c)
                i += 1
                continue
            if c in "\"'":
                mode = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # string or char literal
            if c == "\\":
                out.append(text[i : i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == mode:
                mode = None
                out.append(c)
            elif keep_strings:
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
            i += 1
            continue
        i += 1
    return "".join(out)


def line_of_offset(text, offset):
    return text.count("\n", 0, offset) + 1


def match_brace(text, open_idx):
    """Index of the `}` closing the `{` at open_idx (text must already be
    comment/string-stripped)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ConfigError(f"unbalanced braces after offset {open_idx}")


def has_marker_above(raw_lines, lineno, marker):
    """True when `marker` appears on line `lineno` (1-based) or on the
    contiguous run of // comment lines directly above it. Returns the
    rationale text after the marker, or None."""
    idx = lineno - 1
    candidates = [raw_lines[idx]] if idx < len(raw_lines) else []
    j = idx - 1
    while j >= 0 and raw_lines[j].lstrip().startswith(("//", "///")):
        candidates.append(raw_lines[j])
        j -= 1
    for line in candidates:
        pos = line.find(marker)
        if pos >= 0:
            return line[pos + len(marker) :].strip()
    return None


# ---------------------------------------------------------------------------
# Struct / function extraction engines.
# ---------------------------------------------------------------------------


class Field:
    def __init__(self, name, line, exempt_rationale):
        self.name = name
        self.line = line
        self.exempt_rationale = exempt_rationale  # str | None


def _looks_like_function_decl(code_line):
    """`T name(args...)` is a function unless an `=` precedes the paren
    (then the paren belongs to an initializer expression)."""
    paren = code_line.find("(")
    if paren < 0:
        return False
    eq = code_line.find("=")
    return eq < 0 or eq > paren


_FIELD_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*$")
_FIELD_SKIP_RE = re.compile(
    r"^\s*(public|private|protected|using|typedef|friend|static|template"
    r"|struct|class|enum|#)\b|^\s*[{}]|^\s*$")


class RegexEngine:
    """Pure-stdlib extraction: brace matching over comment-stripped text.
    Reliable for the clang-format'd declarations this repo contains;
    documented limits: one declaration per line, no macros expanding to
    fields, no bitfields."""

    name = "regex"

    def struct_fields(self, path, struct_name):
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        stripped = strip_comments(raw)
        m = re.search(r"\bstruct\s+" + re.escape(struct_name) + r"\b[^;{]*\{",
                      stripped)
        if m is None:
            raise ConfigError(
                f"struct {struct_name} not found in {path}")
        open_idx = stripped.index("{", m.start())
        close_idx = match_brace(stripped, open_idx)
        base_line = line_of_offset(stripped, open_idx)
        body_lines = stripped[open_idx + 1 : close_idx].split("\n")

        fields = []
        depth = 0
        for i, code in enumerate(body_lines):
            lineno = base_line + i if i > 0 else base_line
            if depth == 0 and not _FIELD_SKIP_RE.search(code):
                decl = code.strip()
                if decl.endswith(";") and not _looks_like_function_decl(code):
                    head = decl.split("=", 1)[0].rstrip("; \t")
                    name_match = _FIELD_NAME_RE.search(head)
                    if name_match:
                        rationale = has_marker_above(
                            raw_lines, lineno, FP_EXEMPT_MARKER)
                        fields.append(
                            Field(name_match.group(1), lineno, rationale))
            depth += code.count("{") - code.count("}")
        return fields

    def function_body(self, path, signature):
        """(identifier set referenced in the body, 1-based body start line).
        `signature` is a unique source substring ending before the body's
        opening brace."""
        raw = path.read_text(encoding="utf-8")
        stripped = strip_comments(raw)
        idx = stripped.find(signature)
        if idx < 0:
            # clang-format may have re-wrapped the parameter list; retry with
            # whitespace-tolerant matching.
            pattern = re.compile(
                r"\s*".join(re.escape(tok) for tok in signature.split()))
            m = pattern.search(stripped)
            if m is None:
                raise ConfigError(
                    f"function signature '{signature}' not found in {path}")
            idx = m.start()
        open_idx = stripped.index("{", idx)
        close_idx = match_brace(stripped, open_idx)
        body = stripped[open_idx + 1 : close_idx]
        names = set(re.findall(r"[A-Za-z_]\w*", body))
        return names, line_of_offset(stripped, idx)


class LibclangEngine(RegexEngine):
    """clang.cindex-backed field extraction: struct field lists come from
    the AST (FIELD_DECL cursors), so macro tricks or exotic declarators
    cannot desynchronize the contract. Function-body coverage stays
    token-based (inherited), which is the documented matching semantics of
    both engines. Exemption markers are always read from the source text —
    they are comments, which ASTs do not carry."""

    name = "libclang"

    def __init__(self, compile_commands):
        import clang.cindex  # noqa: deferred import; optional dependency

        self._cindex = clang.cindex
        self._index = clang.cindex.Index.create()
        self._args_by_file = {}
        self._default_args = ["-std=c++20"]
        if compile_commands is not None and compile_commands.exists():
            for entry in json.loads(
                    compile_commands.read_text(encoding="utf-8")):
                args = [
                    a for a in entry.get("command", "").split()[1:]
                    if a.startswith(("-I", "-D", "-std="))
                ]
                src = pathlib.Path(entry["directory"]) / entry["file"]
                self._args_by_file[src.resolve()] = args
                for arg in args:
                    if arg not in self._default_args:
                        self._default_args.append(arg)
        self._tu_cache = {}

    def _translation_unit(self, path):
        resolved = path.resolve()
        if resolved in self._tu_cache:
            return self._tu_cache[resolved]
        args = self._args_by_file.get(resolved, self._default_args)
        tu = self._index.parse(str(resolved), args=args)
        self._tu_cache[resolved] = tu
        return tu

    def struct_fields(self, path, struct_name):
        cindex = self._cindex
        tu = self._translation_unit(path)
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        resolved = str(path.resolve())

        def walk(cursor):
            for child in cursor.get_children():
                location_file = child.location.file
                if location_file is None or \
                        str(pathlib.Path(location_file.name).resolve()) \
                        != resolved:
                    continue
                if child.kind in (cindex.CursorKind.STRUCT_DECL,
                                  cindex.CursorKind.CLASS_DECL) and \
                        child.spelling == struct_name and \
                        child.is_definition():
                    return child
                found = walk(child)
                if found is not None:
                    return found
            return None

        decl = walk(tu.cursor)
        if decl is None:
            # Header may need a TU that includes it; fall back to the
            # regex extraction rather than failing the whole run.
            return RegexEngine.struct_fields(self, path, struct_name)
        fields = []
        for child in decl.get_children():
            if child.kind == cindex.CursorKind.FIELD_DECL:
                lineno = child.location.line
                rationale = has_marker_above(
                    raw_lines, lineno, FP_EXEMPT_MARKER)
                fields.append(Field(child.spelling, lineno, rationale))
        return fields


def make_engine(requested, compile_commands, notices):
    if requested in ("libclang", "auto"):
        try:
            return LibclangEngine(compile_commands)
        except Exception as e:  # ImportError, LibclangError, ...
            if requested == "libclang":
                raise ConfigError(
                    f"--engine libclang unavailable: {e}") from e
            notices.append(
                f"note: clang.cindex unavailable ({e.__class__.__name__}); "
                "falling back to the regex engine")
    return RegexEngine()


# ---------------------------------------------------------------------------
# Checker 1: fingerprint coverage.
# ---------------------------------------------------------------------------


def load_json_config(path, what):
    if not path.exists():
        raise ConfigError(f"{what} config not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} config {path} is not valid JSON: {e}")


def check_fingerprint(root, config_path, engine, findings):
    config = load_json_config(config_path, "fingerprint")
    for contract in config.get("contracts", []):
        name = contract.get("name", "<unnamed>")
        mode = contract.get("mode", "cover")
        if mode not in ("cover", "exclude"):
            raise ConfigError(
                f"contract {name}: mode must be cover|exclude, got {mode}")
        struct_spec = contract["struct"]
        struct_file = root / struct_spec["file"]
        if not struct_file.exists():
            raise ConfigError(
                f"contract {name}: struct file {struct_spec['file']} "
                "does not exist")
        fields = engine.struct_fields(struct_file, struct_spec["name"])
        if not fields:
            raise ConfigError(
                f"contract {name}: no fields extracted from "
                f"{struct_spec['name']} in {struct_spec['file']}")
        aliases = contract.get("aliases", {})

        bodies = []
        for body_spec in contract["bodies"]:
            body_file = root / body_spec["file"]
            if not body_file.exists():
                raise ConfigError(
                    f"contract {name}: body file {body_spec['file']} "
                    "does not exist")
            names, start_line = engine.function_body(
                body_file, body_spec["signature"])
            bodies.append((body_spec, names, start_line))

        rel_struct = struct_file.relative_to(root)
        for field in fields:
            accepted = {field.name, *aliases.get(field.name, [])}
            covering = [b for b in bodies if accepted & b[1]]
            if mode == "exclude":
                for body_spec, _, start_line in covering:
                    findings.append(Finding(
                        pathlib.Path(body_spec["file"]), start_line,
                        "fingerprint",
                        f"{struct_spec['name']}::{field.name} is excluded "
                        f"from cache identity (contract {name}) but is "
                        "referenced by this body — excluded configuration "
                        "must never influence a fingerprint"))
                continue
            # mode == "cover"
            missing = [b for b in bodies if b not in covering]
            if field.exempt_rationale is not None:
                if not field.exempt_rationale:
                    findings.append(Finding(
                        rel_struct, field.line, "fingerprint",
                        f"{struct_spec['name']}::{field.name}: "
                        f"{FP_EXEMPT_MARKER} marker needs a rationale "
                        "after the colon"))
                elif not missing:
                    findings.append(Finding(
                        rel_struct, field.line, "fingerprint",
                        f"{struct_spec['name']}::{field.name} carries a "
                        f"{FP_EXEMPT_MARKER} marker but every contract "
                        "body covers it — remove the stale marker"))
                continue
            for body_spec, _, start_line in missing:
                findings.append(Finding(
                    rel_struct, field.line, "fingerprint",
                    f"{struct_spec['name']}::{field.name} is not referenced "
                    f"by {body_spec['file']}:{start_line} "
                    f"({body_spec['signature'].strip()}) — fingerprint/codec "
                    "coverage is incomplete; hash or serialize the field, "
                    f"or mark it `// {FP_EXEMPT_MARKER} <rationale>`"))


# ---------------------------------------------------------------------------
# Checker 2: wire schema.
# ---------------------------------------------------------------------------

_WIRE_KEY_PATTERNS = (
    # json["key"] subscripts (reads and writes).
    re.compile(r"\[\s*\"([A-Za-z_]\w*)\"\s*\]"),
    # json.get("key", ...) / json.at("key") / json.contains("key"),
    # through either . or -> access.
    re.compile(
        r"(?:\.|->)\s*(?:get|at|contains)\s*\(\s*\"([A-Za-z_]\w*)\"", re.S),
    # bounded_int(json, "key", ...) — the bounded read helper.
    re.compile(r"\bbounded_int\s*\(\s*\w+\s*,\s*\"([A-Za-z_]\w*)\"", re.S),
)
_KNOWN_KEYS_CALL_RE = re.compile(r"\brequire_known_keys\s*\(", re.S)
_STRING_LITERAL_RE = re.compile(r"\"([A-Za-z_]\w*)\"")


def extract_wire_keys(text):
    """{key: first line number} for every string literal at a JSON-key
    position in `text` (comment-stripped, strings preserved)."""
    keys = {}

    def note(key, offset):
        keys.setdefault(key, line_of_offset(text, offset))

    for pattern in _WIRE_KEY_PATTERNS:
        for m in pattern.finditer(text):
            note(m.group(1), m.start(1))
    for m in _KNOWN_KEYS_CALL_RE.finditer(text):
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        close = match_brace(text, brace)
        for lit in _STRING_LITERAL_RE.finditer(text, brace, close):
            note(lit.group(1), lit.start(1))
    return keys


def check_wire_schema(root, manifest_path, findings):
    manifest = load_json_config(manifest_path, "wire-schema")
    version = manifest.get("protocol_version")
    if not isinstance(version, int) or version < 1:
        raise ConfigError(
            f"{manifest_path}: protocol_version must be a positive integer")

    header_rel = manifest.get("protocol_header")
    if header_rel:
        header = root / header_rel
        if not header.exists():
            raise ConfigError(
                f"{manifest_path}: protocol_header {header_rel} "
                "does not exist")
        m = re.search(r"kProtocolVersion\s*=\s*(\d+)",
                      header.read_text(encoding="utf-8"))
        if m is None:
            raise ConfigError(
                f"{header_rel}: kProtocolVersion not found")
        if int(m.group(1)) != version:
            findings.append(Finding(
                manifest_path.relative_to(root)
                if manifest_path.is_relative_to(root) else manifest_path,
                0, "wire-schema",
                f"manifest protocol_version {version} disagrees with "
                f"kProtocolVersion {m.group(1)} in {header_rel} — a "
                "protocol bump must update the schema manifest"))

    entries = manifest.get("keys", {})
    manifest_text = manifest_path.read_text(encoding="utf-8")
    manifest_rel = (manifest_path.relative_to(root)
                    if manifest_path.is_relative_to(root) else manifest_path)

    def manifest_line(key):
        m = re.search(r'"' + re.escape(key) + r'"\s*:', manifest_text)
        return line_of_offset(manifest_text, m.start()) if m else 0

    used = {}  # key -> (rel path, line) of first use
    for file_rel in manifest.get("files", []):
        path = root / file_rel
        if not path.exists():
            raise ConfigError(
                f"{manifest_path}: scanned file {file_rel} does not exist")
        text = strip_comments_keep_strings(
            path.read_text(encoding="utf-8"))
        for key, line in extract_wire_keys(text).items():
            used.setdefault(key, (pathlib.Path(file_rel), line))

    for key, (rel, line) in sorted(used.items()):
        if key not in entries:
            findings.append(Finding(
                rel, line, "wire-schema",
                f"wire key \"{key}\" is not in the schema manifest "
                f"({manifest_rel}) — add it with its documentation, or "
                "stop emitting it"))

    for key, entry in entries.items():
        if not isinstance(entry, dict) or not entry.get("doc"):
            findings.append(Finding(
                manifest_rel, manifest_line(key), "wire-schema",
                f"manifest entry \"{key}\" needs a non-empty `doc` string"))
        if key not in used:
            findings.append(Finding(
                manifest_rel, manifest_line(key), "wire-schema",
                f"manifest entry \"{key}\" is referenced by none of the "
                "scanned codecs — remove the stale entry (protocol "
                "deprecations must prune the manifest)"))


# ---------------------------------------------------------------------------
# Checker 3: layering.
# ---------------------------------------------------------------------------

_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*\"([^\"]+)\"")


def check_layering(root, config_path, findings):
    config = load_json_config(config_path, "layering")
    ranks = config.get("layers")
    if not isinstance(ranks, dict) or not ranks:
        raise ConfigError(f"{config_path}: needs a non-empty `layers` map")
    src_root = root / config.get("src", "src")
    if not src_root.is_dir():
        raise ConfigError(f"{config_path}: src root {src_root} not found")

    unranked_reported = set()
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        rel = path.relative_to(root)
        dir0 = path.relative_to(src_root).parts[0]
        if dir0 not in ranks:
            if dir0 not in unranked_reported:
                unranked_reported.add(dir0)
                findings.append(Finding(
                    rel, 0, "layering",
                    f"directory {src_root.name}/{dir0}/ has no rank in "
                    f"{config_path.name} — new subsystems must declare "
                    "their layer"))
            continue
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        for idx, raw_line in enumerate(raw_lines):
            m = _INCLUDE_RE.match(raw_line)
            if m is None:
                continue
            target = m.group(1).split("/")[0] if "/" in m.group(1) else None
            lineno = idx + 1
            rationale = has_marker_above(
                raw_lines, lineno, LAYER_EXEMPT_MARKER)
            if target is None or target not in ranks:
                continue
            upward = ranks[target] > ranks[dir0]
            lateral = ranks[target] == ranks[dir0] and target != dir0
            if upward or lateral:
                if rationale:
                    continue
                if rationale is not None:
                    findings.append(Finding(
                        rel, lineno, "layering",
                        f"{LAYER_EXEMPT_MARKER} marker needs a rationale "
                        "after the colon"))
                    continue
                kind = "upward" if upward else "lateral"
                findings.append(Finding(
                    rel, lineno, "layering",
                    f"{kind} include: {dir0}/ (layer {ranks[dir0]}) must "
                    f"not include {m.group(1)} (layer {ranks[target]}) — "
                    "invert the dependency or mark the include with "
                    f"`// {LAYER_EXEMPT_MARKER} <rationale>`"))
            elif rationale is not None:
                findings.append(Finding(
                    rel, lineno, "layering",
                    f"stale {LAYER_EXEMPT_MARKER} marker: including "
                    f"{m.group(1)} from {dir0}/ is layer-compliant — "
                    "remove the marker"))


# ---------------------------------------------------------------------------
# Checker 4: concurrency (absorbed PR-7 lint).
# ---------------------------------------------------------------------------

_BANNED_SYNC_TYPES = [
    "std::mutex",
    "std::recursive_mutex",
    "std::timed_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::condition_variable_any",
    "std::condition_variable",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
]
_BANNED_SYNC_RE = re.compile(
    "|".join(re.escape(t) + r"\b" for t in _BANNED_SYNC_TYPES))
_RAW_THREAD_RE = re.compile(r"std::thread\b(?!\s*::)")
_DETACH_RE = re.compile(r"(?:\.|->)\s*detach\s*\(")
_BANNED_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(mutex|condition_variable)>")
_STATIC_DECL_RE = re.compile(
    r"^\s*(?:\[\[[^\]]*\]\]\s*)?(?:inline\s+)?static\s+(?!assert\b)(?!cast\b)")
_SAFE_STATIC_RE = re.compile(
    r"\bconst\b|\bconstexpr\b|\bthread_local\b|std::atomic\b|"
    r"std::once_flag\b|\bMutex\b|\bCondVar\b")


def check_concurrency(root, findings):
    src_root = root / "src"
    if not src_root.is_dir():
        raise ConfigError(f"concurrency: src root {src_root} not found")
    wrapper = src_root / "common" / "thread_annotations.hpp"

    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        code_lines = strip_comments(raw).splitlines()
        is_wrapper = path == wrapper
        rel = path.relative_to(root)

        for idx, code in enumerate(code_lines):
            lineno = idx + 1
            raw_line = raw_lines[idx] if idx < len(raw_lines) else ""

            if not is_wrapper:
                m = _BANNED_SYNC_RE.search(code)
                if m:
                    findings.append(Finding(
                        rel, lineno, "concurrency",
                        f"naked {m.group(0)} — use the pimcomp wrappers "
                        "from common/thread_annotations.hpp"))
                if _RAW_THREAD_RE.search(code):
                    findings.append(Finding(
                        rel, lineno, "concurrency",
                        "raw std::thread type — spell it pimcomp::Thread "
                        "(alias marking audited spawn sites)"))
                if _BANNED_INCLUDE_RE.search(code):
                    findings.append(Finding(
                        rel, lineno, "concurrency",
                        "direct #include of a synchronization header — "
                        "include common/thread_annotations.hpp instead"))

            if _DETACH_RE.search(code):
                findings.append(Finding(
                    rel, lineno, "concurrency",
                    ".detach() — detached threads cannot be joined on "
                    "shutdown"))

            if _STATIC_DECL_RE.search(code):
                if _looks_like_function_decl(code):
                    continue
                if _SAFE_STATIC_RE.search(code):
                    continue
                prev = raw_lines[idx - 1] if idx > 0 else ""
                if CONCURRENCY_MARKER in raw_line or \
                        CONCURRENCY_MARKER in prev:
                    continue
                findings.append(Finding(
                    rel, lineno, "concurrency",
                    "mutable static without a known-safe shape — make it "
                    "const/constexpr/thread_local/atomic, guard it, or "
                    "annotate the line above with "
                    f"`// {CONCURRENCY_MARKER}`"))


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def run(argv=None):
    parser = argparse.ArgumentParser(
        prog="pimcomp-analyze",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path, default=DEFAULT_ROOT,
                        help="repository (or fixture) root to analyze")
    parser.add_argument("--checker", action="append", choices=CHECKER_NAMES,
                        help="run only the named checker(s); default: all")
    parser.add_argument("--engine", choices=("auto", "regex", "libclang"),
                        default="auto",
                        help="struct/function extraction engine")
    parser.add_argument("--compile-commands", type=pathlib.Path,
                        help="compile_commands.json for the libclang engine "
                             "(default: <root>/build/compile_commands.json)")
    parser.add_argument("--fingerprint-contracts", type=pathlib.Path,
                        help="override tools/analysis/"
                             "fingerprint_contracts.json")
    parser.add_argument("--wire-schema", type=pathlib.Path,
                        help="override tools/analysis/wire_schema.json")
    parser.add_argument("--layers", type=pathlib.Path,
                        help="override tools/analysis/layers.json")
    parser.add_argument("--json-report", type=pathlib.Path,
                        help="write findings as JSON to this path")
    parser.add_argument("--list-checkers", action="store_true",
                        help="print checker names and exit")
    args = parser.parse_args(argv)

    if args.list_checkers:
        print("\n".join(CHECKER_NAMES))
        return 0

    root = args.root.resolve()
    analysis_dir = root / ANALYSIS_DIR_NAME
    contracts = args.fingerprint_contracts or \
        analysis_dir / "fingerprint_contracts.json"
    wire_schema = args.wire_schema or analysis_dir / "wire_schema.json"
    layers = args.layers or analysis_dir / "layers.json"
    compile_commands = args.compile_commands or \
        root / "build" / "compile_commands.json"
    checkers = args.checker or list(CHECKER_NAMES)

    notices = []
    findings = []
    engine = None
    try:
        if "fingerprint" in checkers:
            engine = make_engine(args.engine, compile_commands, notices)
            check_fingerprint(root, contracts, engine, findings)
        if "wire-schema" in checkers:
            check_wire_schema(root, wire_schema, findings)
        if "layering" in checkers:
            check_layering(root, layers, findings)
        if "concurrency" in checkers:
            check_concurrency(root, findings)
    except ConfigError as e:
        print(f"pimcomp-analyze: configuration error: {e}", file=sys.stderr)
        return 2

    for notice in notices:
        print(notice, file=sys.stderr)
    for finding in findings:
        print(finding.render())

    if args.json_report is not None:
        report = {
            "tool": "pimcomp-analyze",
            "report_version": 1,
            "engine": engine.name if engine is not None else None,
            "checkers": checkers,
            "total_findings": len(findings),
            "findings": [f.to_json() for f in findings],
        }
        args.json_report.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8")

    if findings:
        print(f"\n{len(findings)} finding(s).", file=sys.stderr)
        return 1
    print(f"pimcomp-analyze: clean ({', '.join(checkers)})")
    return 0


if __name__ == "__main__":
    sys.exit(run())
