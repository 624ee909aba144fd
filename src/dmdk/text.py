"""Tokenization, vocabulary, corpus I/O, and the lexicon entity tagger."""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple


class EntityType(Enum):
    ANATOMY = "ANATOMY"
    OBSERVATION = "OBSERVATION"
    ANATOMY_MODIFIER = "ANATOMY_MODIFIER"
    OBSERVATION_MODIFIER = "OBSERVATION_MODIFIER"
    UNCERTAINTY = "UNCERTAINTY"


class Entity(NamedTuple):
    text: str
    type: EntityType


EntitySequence = list[Entity]

_PUNCT_RE = re.compile(r"([.,:;!?])")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach .,:;!? as their own tokens."""
    return _PUNCT_RE.sub(r" \1 ", text.lower()).split()


@dataclass
class Vocabulary:
    """Token <-> index map with fixed specials at indices 0-3."""

    PAD = 0
    BOS = 1
    EOS = 2
    UNK = 3
    SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")

    tokens: list[str]
    min_freq: int
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        if tuple(self.tokens[:4]) != self.SPECIALS:
            raise ValueError(f"vocabulary must start with specials {self.SPECIALS}")

    @classmethod
    def build(cls, reports: Iterable[Sequence[str]], min_freq: int = 3) -> "Vocabulary":
        """Keep tokens seen >= min_freq times, ordered by count desc then
        lexicographic; a ``min_freq`` below 1 keeps what 1 keeps."""
        counts: Counter[str] = Counter()
        for report in reports:
            counts.update(report)
        kept = sorted(
            (t for t, c in counts.items() if c >= min_freq and t not in cls.SPECIALS),
            key=lambda t: (-counts[t], t),
        )
        return cls(list(cls.SPECIALS) + kept, min_freq)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Indices of ``tokens``; unknown tokens and literal specials map to UNK
        (PAD, BOS and EOS sit below it), so text never yields a control token."""
        return [max(self.index.get(t, self.UNK), self.UNK) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Indices back to tokens; PAD/BOS/EOS are dropped, never emitted."""
        out = []
        for i in ids:
            if not 0 <= i < len(self.tokens):
                raise ValueError(f"token index {i} out of range [0, {len(self.tokens)})")
            if i in (self.PAD, self.BOS, self.EOS):
                continue
            out.append(self.tokens[i])
        return out


@dataclass
class CorpusRecord:
    id: str
    features: list[str]
    report: str | None = None
    entities: EntitySequence | None = None


def _parse_entities(raw, where: str) -> EntitySequence:
    if not isinstance(raw, list):
        raise ValueError(f"{where}: 'entities' must be a list")
    out: EntitySequence = []
    for k, item in enumerate(raw):
        if not isinstance(item, dict) or "text" not in item or "type" not in item:
            raise ValueError(f"{where}: entities[{k}] needs 'text' and 'type'")
        text = item["text"]
        if not isinstance(text, str) or not text.strip():
            raise ValueError(f"{where}: entities[{k}].text must be a nonempty string")
        try:
            etype = EntityType(item["type"])
        except ValueError:
            valid = ", ".join(t.value for t in EntityType)
            raise ValueError(
                f"{where}: entities[{k}].type {item['type']!r} is not one of: {valid}"
            ) from None
        out.append(Entity(text, etype))
    return out


def decode_utf8(data: bytes, where: str) -> str:
    """``data`` as UTF-8 text; undecodable bytes raise a ValueError naming ``where``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{where}: not UTF-8 text: {e}") from None


def parse_json(text: str, where: str):
    """``json.loads``; malformed or too deeply nested JSON raises a ValueError naming ``where``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"{where}: malformed JSON: {e}") from None


def read_json_lines(path: str | Path, what: str) -> Iterator[tuple[str, str, dict]]:
    """(location, id, object) for each nonblank line of a JSON-lines file.

    Every line must be an object with a unique nonempty string ``id``; errors
    name the file and line, and a duplicate is called a duplicate ``what`` id.
    """
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            line = decode_utf8(raw, where)
            if not line.strip():
                continue
            obj = parse_json(line, where)
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: each line must be a JSON object")
            rid = obj.get("id")
            if not isinstance(rid, str) or not rid:
                raise ValueError(f"{where}: missing required field 'id'")
            if rid in seen:
                raise ValueError(f"{where}: duplicate {what} id {rid!r}")
            seen.add(rid)
            yield where, rid, obj


def load_corpus(path: str | Path, require_report: bool = False) -> list[CorpusRecord]:
    """Read a JSON-lines corpus; errors carry the file name and line number.

    Relative feature paths are resolved against the corpus file's directory.
    """
    path = Path(path)
    records: list[CorpusRecord] = []
    for where, rid, obj in read_json_lines(path, "record"):
        feats = obj.get("features")
        if not isinstance(feats, list) or not (1 <= len(feats) <= 2) or not all(
            isinstance(f, str) and f for f in feats
        ):
            raise ValueError(f"{where}: 'features' must list 1 or 2 file paths")
        feats = [str(path.parent / f) if not Path(f).is_absolute() else f for f in feats]
        report = obj.get("report")
        if report is not None and not isinstance(report, str):
            raise ValueError(f"{where}: 'report' must be a string")
        if require_report and not (report and report.strip()):
            raise ValueError(f"{where}: missing required field 'report'")
        entities = None
        if "entities" in obj and obj["entities"] is not None:
            entities = _parse_entities(obj["entities"], where)
        records.append(CorpusRecord(rid, feats, report, entities))
    return records


def save_corpus(path: str | Path, records: Iterable[CorpusRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj: dict = {"id": rec.id, "features": rec.features}
            if rec.report is not None:
                obj["report"] = rec.report
            if rec.entities is not None:
                obj["entities"] = [{"text": e.text, "type": e.type.value} for e in rec.entities]
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


@dataclass
class Lexicon:
    """Longest-match term table mapping lowercase token tuples to entity types."""

    terms: dict[tuple[str, ...], EntityType]

    @property
    def max_term_len(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        """Parse `term<TAB>TYPE` lines; '#' starts a comment, blanks ignored."""
        terms: dict[tuple[str, ...], EntityType] = {}
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = decode_utf8(raw, f"{path}:{lineno}").strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0].strip():
                    raise ValueError(f"{path}:{lineno}: expected 'term<TAB>TYPE'")
                term, type_name = parts[0].strip(), parts[1].strip()
                try:
                    etype = EntityType(type_name)
                except ValueError:
                    valid = ", ".join(t.value for t in EntityType)
                    raise ValueError(
                        f"{path}:{lineno}: unknown entity type {type_name!r}; one of: {valid}"
                    ) from None
                terms[tuple(term.lower().split())] = etype
        return cls(terms)


def default_lexicon_path() -> Path:
    return Path(__file__).parent / "data" / "lexicon.tsv"


def lexicon_tag(tokens: Sequence[str], lexicon: Lexicon) -> EntitySequence:
    """Left-to-right longest-match scan; unmatched tokens produce nothing."""
    out: EntitySequence = []
    i = 0
    n = len(tokens)
    longest = lexicon.max_term_len
    while i < n:
        for k in range(min(longest, n - i), 0, -1):
            key = tuple(tokens[i : i + k])
            if key in lexicon.terms:
                out.append(Entity(" ".join(key), lexicon.terms[key]))
                i += k
                break
        else:
            i += 1
    return out
