"""Seeded corpora for the benchmark, and the outputs the program must produce.

Nothing here imports halodet: every expectation (tool plan, evidence after
the documented postconditions, verdicts, the per-pair file bytes, gold and
predicted labels) is computed from the generator's own records, so a check
against it is independent of the code under test.

Each round is a fixed *shape* (per position: task, number and kind of
claims, questions per claim, which model replies arrive damaged, which
verification request needs its retry) that does not depend on the seed; the
seed only changes the content (names, labels, boxes, answers, gold and
predicted labels). So call counts, thread counts and failure shares repeat
exactly from seed to seed, while the inputs still differ.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any

# A round of the annotated corpus holds the MHaluBench task mix of
# 200/200/220 scaled down to 10/10/11.
TASK_MIX = (("image-captioning", 10), ("vqa", 10), ("text-to-image", 11))
# An open-domain round: 10 images with 3 responses each.
OPEN_IMAGES = 10
OPEN_RESPONSES = 3

# Per-call latency injected by the fakes, in seconds. The fake attribute
# answerer takes the model's latency: live, the model answers those itself.
LATENCY_S = {
    "model": 0.020,
    "attribute": 0.020,
    "fact": 0.015,
    "object": 0.010,
    "scene": 0.008,
}

# Share of model replies damaged in a way the lenient parser repairs.
DAMAGE_SHARE = 0.2
DAMAGE_KINDS = ("fence", "comma", "quote")
# Positions whose verification reply is unparseable on its first call only.
RETRY_POSITIONS = (6, 21)
OPEN_RETRY_POSITIONS = (4, 19)
UNPARSEABLE_REPLY = "I am unable to judge these claims right now."

TOP_K = 3
SNIPPETS_PER_QUESTION = 4  # more than TOP_K, so the cut is exercised

H = "hallucinatory"
NH = "non-hallucinatory"
WIRE = {H: "hallucination", NH: "non-hallucination"}

_OBJECTS = (
    "dog", "cat", "bicycle", "car", "umbrella", "chair", "bench", "horse",
    "boat", "kite", "clock", "vase", "laptop", "bottle", "cup", "bowl",
    "banana", "apple", "train", "truck", "bird", "sheep", "cow", "bus",
    "backpack", "handbag", "surfboard", "skateboard", "pizza", "lamp",
)
_TEXT_BEARERS = ("sign", "poster", "banner", "billboard", "placard", "menu")
_COLORS = ("red", "blue", "green", "yellow", "black", "white", "brown", "orange")
_SYLLABLES = ("ka", "lo", "vin", "dor", "el", "mar", "sa", "ten", "ru", "bel",
              "cor", "na", "fi", "gal", "ost", "pe", "quin", "ra")
_WORDS = ("OPEN", "CLOSED", "EXIT", "WELCOME", "SALE", "STOP", "BAKERY",
          "PARKING", "HOTEL", "MUSEUM", "CAFE", "DANGER")

_CLAIM_TEXT = {
    "opener": ("The photo shows {place}.", "This picture was taken at {place}.",
               "The image depicts {place}."),
    "object": ("A {a} is next to a {b} at {place}.",
               "There is a {a} beside a {b} at {place}.",
               "At {place} a {a} stands near a {b}."),
    "attribute": ("The {a} at {place} is {color}.", "A {color} {a} rests at {place}.",
                  "At {place} the {a} looks {color}."),
    "scene-text": ("The {a} at {place} reads {word}.",
                   "The word {word} is written on the {a} at {place}.",
                   "At {place} the {a} shows {word}."),
    "fact": ("{hall} Hall at {place} opened in {year}.",
             "{hall} Hall near {place} dates from {year}.",
             "The {hall} Hall at {place} was first opened in {year}."),
}
_KIND_WORD = {"opener": "scene", "object": "object", "attribute": "attribute",
              "scene-text": "scene text", "fact": "external knowledge"}


def dumps_payload(payload: dict[str, Any]) -> bytes:
    """The documented per-pair file encoding: sorted keys, indent 2, UTF-8."""
    text = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


def render_claim_list(texts: list[str]) -> str:
    """The claim list as prompts carry it: ``claimK: <text>`` lines."""
    return "\n".join(f"claim{i}: {text}" for i, text in enumerate(texts, start=1))


def _damage(obj: Any, kind: str | None) -> str:
    text = json.dumps(obj, ensure_ascii=False)
    if kind is None:
        return text
    if kind == "fence":
        return "```json\n" + text + "\n```"
    if kind == "comma":
        return text[:-1] + "," + text[-1]
    if kind == "quote":
        return repr(obj)  # Python literal: single-quoted strings
    raise ValueError(kind)


def _name(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3)).capitalize()


def _box(rng: random.Random, x1: int) -> tuple[float, float, float, float]:
    # Whole thousandths, so encoding and decoding round-trip exactly.
    y1 = rng.randrange(0, 600)
    w = rng.randrange(50, 400)
    h = rng.randrange(50, 400)
    return (x1 / 1000, y1 / 1000, (x1 + w) / 1000, (y1 + h) / 1000)


def _box_json(box: tuple[float, float, float, float]) -> dict[str, float]:
    return {"x1": box[0], "y1": box[1], "x2": box[2], "y2": box[3]}


# --- shapes: the seed-independent structure of a round ---------------------------


@dataclass(frozen=True)
class ClaimShape:
    kind: str              # opener, object, attribute, scene-text, fact
    subject: int           # index into the image's subjects of this kind
    variant: int           # which phrasing of the claim
    n_fact: int = 0        # fact questions (fact claims only)
    label_noise: bool = False  # object reply repeats a label in another case
    pad: bool = False      # a question arrives padded with spaces


@dataclass(frozen=True)
class PairShape:
    position: int
    task: str
    image: int             # index of the image within the round
    claims: tuple[ClaimShape, ...]
    segments: tuple[tuple[int, ...], ...] | None
    damage: dict[str, str | None]
    retry: bool


def _damage_plan(rng: random.Random, replies: tuple[str, ...]) -> dict[str, str | None]:
    return {
        reply: rng.choice(DAMAGE_KINDS) if rng.random() < DAMAGE_SHARE else None
        for reply in replies
    }


def _segments(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...] | None:
    if n < 2 or rng.random() < 0.5:
        return None
    groups, index = [], 1
    while index <= n:
        size = min(rng.choice((1, 2)), n - index + 1)
        groups.append(tuple(range(index, index + size)))
        index += size
    return tuple(groups)


_MODEL_REPLIES = ("object", "scene", "fact", "attribute", "verify")


def unihd_shapes() -> list[PairShape]:
    """Shape of one annotated round: every claim has its own subject."""
    rng = random.Random("halobench-shape-unihd")
    tasks = [task for task, n in TASK_MIX for _ in range(n)]
    rng.shuffle(tasks)
    claims_range = {"image-captioning": (3, 5), "vqa": (2, 4), "text-to-image": (2, 3)}
    shapes = []
    for position, task in enumerate(tasks):
        n = rng.randint(*claims_range[task])
        counts = {"object": 0, "attribute": 0, "scene-text": 0, "fact": 0}
        fact_questions = 0
        claims = []
        for index in range(n):
            kind = rng.choices(("object", "attribute", "scene-text", "fact"),
                               weights=(35, 30, 15, 20))[0]
            # At most 3 attribute and 3 fact questions, so the 8-wide tool
            # pool runs every call of a pair at once.
            if kind == "attribute" and counts["attribute"] >= 3:
                kind = "object"
            if kind == "fact" and fact_questions >= 3:
                kind = "object"
            if index == 0 and kind != "object":
                kind = "object"  # every pair asks the detector something
            n_fact = 0
            if kind == "fact":
                n_fact = min(rng.choice((1, 2)), 3 - fact_questions)
                fact_questions += n_fact
            claims.append(ClaimShape(
                kind=kind, subject=counts[kind], variant=rng.randrange(3),
                n_fact=n_fact, label_noise=rng.random() < 0.25,
                pad=rng.random() < 0.15,
            ))
            counts[kind] += 1
        shapes.append(PairShape(
            position=position, task=task, image=position, claims=tuple(claims),
            segments=_segments(rng, n), damage=_damage_plan(rng, _MODEL_REPLIES),
            retry=position in RETRY_POSITIONS,
        ))
    return shapes


def open_shapes() -> list[PairShape]:
    """Shape of one open-domain round: responses share images and subjects.

    Each response to an image opens with its own phrasing of where the photo
    was taken, then makes claims about the image's shared subjects. Two
    claims of one response may ask the same attribute or fact question.
    """
    rng = random.Random("halobench-shape-open")
    tasks = ["image-captioning"] * 4 + ["vqa"] * 3 + ["text-to-image"] * 3
    rng.shuffle(tasks)
    shapes = []
    for image in range(OPEN_IMAGES):
        for response in range(OPEN_RESPONSES):
            position = image * OPEN_RESPONSES + response
            claims = [ClaimShape(kind="opener", subject=0, variant=response)]
            used: set[tuple[str, int, int]] = set()
            facts = 0
            for _ in range(rng.randint(2, 4)):
                # Distinct (kind, subject, phrasing) keeps claim texts unique;
                # at most two fact claims keeps a pair within 8 tool calls.
                while True:
                    kind = rng.choices(("object", "attribute", "scene-text", "fact"),
                                       weights=(30, 35, 15, 20))[0]
                    subject = 0 if kind in ("scene-text", "fact") else rng.randrange(2)
                    variant = rng.randrange(3)
                    if (kind, subject, variant) not in used and not (
                            kind == "fact" and facts == 2):
                        break
                used.add((kind, subject, variant))
                facts += kind == "fact"
                claims.append(ClaimShape(
                    kind=kind, subject=subject, variant=variant,
                    n_fact=2 if kind == "fact" else 0,
                    label_noise=rng.random() < 0.25, pad=rng.random() < 0.15,
                ))
            shapes.append(PairShape(
                position=position, task=tasks[image], image=image,
                claims=tuple(claims), segments=_segments(rng, len(claims)),
                damage=_damage_plan(rng, ("extract",) + _MODEL_REPLIES),
                retry=position in OPEN_RETRY_POSITIONS,
            ))
    return shapes


# --- content ----------------------------------------------------------------------


@dataclass
class Image:
    """One synthetic image: identity, subjects, and what the tools see in it."""

    path: str
    digest: str
    place: str
    subjects: dict[str, list[dict[str, Any]]]
    detections: list[tuple[str, tuple[float, float, float, float]]] = field(default_factory=list)
    lines: list[tuple[str, tuple[float, float, float, float]]] = field(default_factory=list)


@dataclass
class Claim:
    text: str
    kind: str
    labels: list[str]          # as the object reply spells them
    attribute: list[str]       # questions, as the replies carry them
    scene: list[str]
    facts: list[str]
    gold: str
    pred: str
    reason: str


@dataclass
class PairCase:
    """One generated pair: the program's input and everything it must output."""

    pair_id: str
    task: str
    image: Image
    claims: list[Claim]
    segments: tuple[tuple[int, ...], ...] | None
    replies: dict[str, str]    # model replies by kind
    retry: bool
    annotated: bool
    expected: bytes = b""      # per-pair file when the program is right
    degraded: bytes = b""      # per-pair file under the verification-retry fault

    @property
    def text(self) -> str:
        return " ".join(c.text for c in self.claims)

    @property
    def claim_list(self) -> str:
        return render_claim_list([c.text for c in self.claims])

    def input_json(self) -> dict[str, Any]:
        """What the program receives: claims only when annotated."""
        data: dict[str, Any] = {
            "id": self.pair_id,
            "task": self.task,
            "image": {"path": self.image.path, "digest": self.image.digest},
            "text": self.text,
        }
        if self.annotated:
            data.update(self._gold_fields())
        return data

    def gold_json(self) -> dict[str, Any]:
        data = {
            "id": self.pair_id,
            "task": self.task,
            "image": {"path": self.image.path, "digest": self.image.digest},
            "text": self.text,
        }
        data.update(self._gold_fields())
        return data

    def _gold_fields(self) -> dict[str, Any]:
        claims = []
        for index, claim in enumerate(self.claims, start=1):
            entry: dict[str, Any] = {"index": index, "text": claim.text,
                                     "gold_label": claim.gold}
            if claim.gold == H:
                entry["gold_categories"] = [claim.kind]
            claims.append(entry)
        data: dict[str, Any] = {"claims": claims}
        if self.segments is not None:
            data["segments"] = [
                {"id": f"s{k}", "text": " ".join(self.claims[i - 1].text for i in group),
                 "claim_indices": list(group)}
                for k, group in enumerate(self.segments, start=1)
            ]
        return data


def _image(rng: random.Random, key: str, place: str) -> Image:
    digest = hashlib.sha256(f"bench-image:{key}".encode()).hexdigest()
    return Image(path=f"images/{digest[:16]}.jpg", digest=digest, place=place,
                 subjects={})


def _subjects(rng: random.Random, image: Image, need: dict[str, int]) -> None:
    """Draw distinct subjects per kind; labels never repeat within an image."""
    labels = rng.sample(_OBJECTS, 2 * need["object"] + need["attribute"] + 2)
    bearers = rng.sample(_TEXT_BEARERS, need["scene-text"])
    halls: set[str] = set()
    subjects: dict[str, list[dict[str, Any]]] = {k: [] for k in need}
    for _ in range(need["object"]):
        subjects["object"].append({"a": labels.pop(), "b": labels.pop()})
    for _ in range(need["attribute"]):
        color = rng.choice(_COLORS)
        seen = color if rng.random() < 0.7 else rng.choice(_COLORS)
        subjects["attribute"].append({"a": labels.pop(), "color": color, "seen": seen})
    for bearer in bearers:
        word = rng.choice(_WORDS)
        seen = word if rng.random() < 0.7 else rng.choice(_WORDS)
        subjects["scene-text"].append({"a": bearer, "word": word, "seen": seen})
    for _ in range(need["fact"]):
        hall = _name(rng)
        while hall in halls:
            hall = _name(rng)
        halls.add(hall)
        subjects["fact"].append({"hall": hall, "year": rng.randrange(1850, 2015)})
    image.subjects = subjects
    image.subjects["distractors"] = [{"a": labels.pop()}, {"a": labels.pop()}]


def _tool_view(rng: random.Random, image: Image) -> None:
    """What the detector and the scene-text reader return for the image:
    unrequested labels, duplicates and a shuffled order included."""
    labels: list[str] = []
    for subject in image.subjects["object"]:
        labels += [subject["a"], subject["b"]]
    labels += [s["a"] for s in image.subjects["attribute"]]
    labels += [s["a"] for s in image.subjects["scene-text"]]
    labels += [s["a"] for s in image.subjects["distractors"]]
    instances = [label for label in labels for _ in range(rng.choice((0, 1, 1, 2)))]
    xs = rng.sample(range(0, 600), len(instances) + len(image.subjects["scene-text"]) + 1)
    detections = [(label, _box(rng, xs.pop())) for label in instances]
    if detections:
        detections.append(rng.choice(detections))
    rng.shuffle(detections)
    lines = [(s["seen"], _box(rng, xs.pop())) for s in image.subjects["scene-text"]]
    lines.append((rng.choice(_WORDS).lower(), _box(rng, xs.pop())))
    lines.append(rng.choice(lines))
    rng.shuffle(lines)
    image.detections = detections
    image.lines = lines


def _claim(rng: random.Random, image: Image, shape: ClaimShape) -> Claim:
    place = image.place
    if shape.kind == "opener":
        text = _CLAIM_TEXT["opener"][shape.variant].format(place=place)
        gold = NH
        labels, attribute, scene, facts = [], [], [], []
        subject_word = place
    else:
        subject = image.subjects[shape.kind][shape.subject]
        text = _CLAIM_TEXT[shape.kind][shape.variant].format(place=place, **subject)
        gold = H if rng.random() < 0.35 else NH
        attribute, scene, facts = [], [], []
        if shape.kind == "object":
            labels = [subject["a"], subject["b"]]
        elif shape.kind == "attribute":
            labels = [subject["a"]]
            attribute = [f"What color is the {subject['a']} at {place}?"]
        elif shape.kind == "scene-text":
            labels = [subject["a"]]
            scene = [f"What does the {subject['a']} at {place} say?"]
        else:
            labels = []
            facts = [f"When did {subject['hall']} Hall at {place} open?",
                     f"{subject['hall']} Hall {place} history"][:shape.n_fact]
        if shape.label_noise and labels:
            labels = [labels[0].capitalize()] + labels
        if shape.pad:
            attribute = [f"  {q} " for q in attribute]
            facts = [f" {q}  " for q in facts]
        subject_word = subject.get("a") or subject.get("hall")
    pred = gold if rng.random() < 0.85 else (NH if gold == H else H)
    verb = "contradicts" if pred == H else "supports"
    reason = (f"The {_KIND_WORD[shape.kind]} evidence {verb} the claim "
              f"about the {subject_word}.")
    return Claim(text=text, kind=shape.kind, labels=labels, attribute=attribute,
                 scene=scene, facts=facts, gold=gold, pred=pred, reason=reason)


def fact_snippets(question: str) -> list[tuple[str, str, str]]:
    """The search provider's hits for a question; provider order is kept."""
    rng = random.Random(f"snippets:{question.strip()}")
    hits = []
    for rank in range(SNIPPETS_PER_QUESTION):
        title = "" if rank == 1 else f"{_name(rng)} Archive"
        url = "" if rank == 2 else f"https://example.org/{rng.randrange(10**6)}"
        hits.append((title, f"Record {rank + 1}: {question.strip()} {rng.randrange(1850, 2015)}",
                     url))
    return hits


def snippet_line(title: str, snippet: str, url: str) -> str:
    line = f"{title}: {snippet}" if title else snippet
    return line + (f" ({url})" if url else "")


def attribute_answer(image: Image, question: str) -> str:
    for subject in image.subjects["attribute"]:
        if question.strip() == f"What color is the {subject['a']} at {image.place}?":
            return f"The {subject['a']} is {subject['seen']}."
    return "none information"


# --- replies and expectations -------------------------------------------------------


def _claim_map(claims: list[Claim], field_name: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for index, claim in enumerate(claims, start=1):
        items = getattr(claim, field_name)
        if field_name == "labels":
            out[f"claim{index}"] = ".".join(items) if items else "none"
        else:
            out[f"claim{index}"] = list(items) if items else ["none"]
    return out


def _dedup_lower(labels: list[str]) -> list[str]:
    seen: dict[str, None] = {}
    for label in labels:
        seen.setdefault(label.lower())
    return list(seen)


def _expected_payload(case: PairCase, verdicts: list[dict[str, Any]],
                      degraded: bool) -> dict[str, Any]:
    plan = {}
    union: dict[str, None] = {}
    for index, claim in enumerate(case.claims, start=1):
        labels = _dedup_lower(claim.labels)
        for label in labels:
            union.setdefault(label)
        plan[f"claim{index}"] = {
            "object_labels": labels,
            "attribute_questions": [q.strip() for q in claim.attribute],
            "scene_text_questions": [q.strip() for q in claim.scene],
            "fact_questions": [q.strip() for q in claim.facts],
        }
    image = case.image
    objects = []
    if union:
        wanted = set(union)
        kept = {(label, box) for label, box in image.detections if label.lower() in wanted}
        for label, box in sorted(kept, key=lambda item: (item[0], item[1][0], item[1][1])):
            objects.append({"kind": "object", "label": label, "box": _box_json(box)})
    attributes = [
        {"kind": "attribute", "question": q.strip(), "answer": attribute_answer(image, q)}
        for claim in case.claims for q in claim.attribute
    ]
    scene_texts = []
    if any(claim.scene for claim in case.claims):
        for text, box in sorted(set(image.lines), key=lambda item: (item[1][1], item[1][0], item[0])):
            scene_texts.append({"kind": "scene-text", "text": text, "box": _box_json(box)})
    facts = [
        {"kind": "fact", "question": q.strip(),
         "snippets": [snippet_line(*hit) for hit in fact_snippets(q)[:TOP_K]]}
        for claim in case.claims for q in claim.facts
    ]
    return {
        "pair_id": case.pair_id,
        "method": "unihd",
        "plan": plan,
        "evidence": {"objects": objects, "attributes": attributes,
                     "scene_texts": scene_texts, "facts": facts},
        "verdicts": verdicts,
        "degraded": degraded,
    }


def _finish(case: PairCase, damage: dict[str, str | None]) -> None:
    claims = case.claims
    verify_obj = [{f"claim{i}": WIRE[c.pred], "reason": c.reason}
                  for i, c in enumerate(claims, start=1)]
    case.replies = {
        "object": _damage(_claim_map(claims, "labels"), damage["object"]),
        "scene": _damage(_claim_map(claims, "scene"), damage["scene"]),
        "fact": _damage(_claim_map(claims, "facts"), damage["fact"]),
        "attribute": _damage(_claim_map(claims, "attribute"), damage["attribute"]),
        # A retried request gets a clean reply on its second call.
        "verify": _damage(verify_obj, None if case.retry else damage["verify"]),
    }
    if not case.annotated:
        case.replies["extract"] = _damage(
            {f"claim{i}": c.text for i, c in enumerate(claims, start=1)},
            damage["extract"])
    repaired = ["repaired"] if damage["verify"] is not None and not case.retry else []
    verdicts = [{"claim_index": i, "label": c.pred, "rationale": c.reason,
                 "parse_flags": repaired} for i, c in enumerate(claims, start=1)]
    case.expected = dumps_payload(_expected_payload(case, verdicts, degraded=False))
    if case.retry:
        # The documented fallback once the retry fails too: every claim
        # non-hallucinatory, flagged unverified, with an empty rationale.
        fallback = [{"claim_index": i, "label": NH, "rationale": "",
                     "parse_flags": ["unverified"]} for i in range(1, len(claims) + 1)]
        case.degraded = dumps_payload(_expected_payload(case, fallback, degraded=True))


def unihd_round(seed: int, round_index: int, prefix: str) -> list[PairCase]:
    """One annotated round; retry pairs draw from a seed-independent stream."""
    cases = []
    for shape in unihd_shapes():
        stream = "fixed" if shape.retry else str(seed)
        rng = random.Random(f"{stream}:{round_index}:{shape.position}")
        place = f"{_name(rng)} {round_index}-{shape.position}"
        image = _image(rng, f"{stream}:{round_index}:{shape.position}", place)
        need = {k: sum(1 for c in shape.claims if c.kind == k)
                for k in ("object", "attribute", "scene-text", "fact")}
        _subjects(rng, image, need)
        _tool_view(rng, image)
        claims = [_claim(rng, image, c) for c in shape.claims]
        case = PairCase(pair_id=f"{prefix}r{round_index}p{shape.position:02d}",
                        task=shape.task, image=image, claims=claims,
                        segments=shape.segments, replies={}, retry=shape.retry,
                        annotated=True)
        _finish(case, shape.damage)
        cases.append(case)
    return cases


def open_round(seed: int, round_index: int, prefix: str) -> list[PairCase]:
    """One open-domain round: unannotated responses, three per image."""
    shapes = open_shapes()
    images: dict[int, Image] = {}
    for image_index in range(OPEN_IMAGES):
        rng = random.Random(f"{seed}:{round_index}:image{image_index}")
        place = f"{_name(rng)} {round_index}-{image_index}"
        image = _image(rng, f"{seed}:{round_index}:image{image_index}", place)
        _subjects(rng, image, {"object": 2, "attribute": 2, "scene-text": 1, "fact": 1})
        _tool_view(rng, image)
        images[image_index] = image
    cases = []
    for shape in shapes:
        rng = random.Random(f"{seed}:{round_index}:{shape.position}")
        image = images[shape.image]
        claims = [_claim(rng, image, c) for c in shape.claims]
        case = PairCase(pair_id=f"{prefix}r{round_index}p{shape.position:02d}",
                        task=shape.task, image=image, claims=claims,
                        segments=shape.segments, replies={}, retry=shape.retry,
                        annotated=False)
        _finish(case, shape.damage)
        cases.append(case)
    return cases


def bench_json(cases: list[PairCase]) -> dict[str, Any]:
    """The gold benchmark file for a round (mhalubench.v1)."""
    return {
        "version": "mhalubench.v1",
        "provenance": {"generator": "benchmarks/corpus.py"},
        "pairs": [case.gold_json() for case in cases],
    }
