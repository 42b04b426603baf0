import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iseeq.kg import load_kg
from iseeq.sqe import QueryDescription, expand_query, extract_entities

from conftest import CAREER_ENTITIES, CAREER_QUERY
from oracles import all_substring_matches, strip_injections


class TestExtractEntities:
    def test_career_example_full_set(self, career_kg):
        entities, spans = extract_entities(career_kg, CAREER_QUERY)
        assert set(entities) == CAREER_ENTITIES
        assert len(entities) == len(spans) == 5
        # maximal matches come out of the primary pass
        assert entities[:3] == ["career_options", "physician_assistant", "nurse"]

    def test_spans_point_at_mentions(self, career_kg):
        entities, spans = extract_entities(career_kg, CAREER_QUERY)
        by_entity = dict(zip(entities, spans))
        start, end = by_entity["career_options"]
        assert CAREER_QUERY[start:end] == "career options"
        start, end = by_entity["physician_assistant"]
        assert CAREER_QUERY[start:end] == "physician's assistant"

    def test_no_matches(self, career_kg):
        entities, spans = extract_entities(career_kg, "zzz qqq")
        assert entities == [] and spans == []

    def test_case_and_underscore_variants(self, career_kg):
        entities, _ = extract_entities(career_kg, "CAREER_OPTIONS and a Nurse")
        assert "career_options" in entities and "nurse" in entities

    def test_planted_phrases_match_substring_oracle(self, tmp_path, career_kg):
        rnd = random.Random(99)
        planted = ["career options", "nurse", "physician's assistant", "profession"]
        for trial in range(20):
            filler = [f"zz{rnd.randint(0, 10 ** 6)}" for _ in range(30)]
            slots = sorted(rnd.sample(range(31), len(planted)))
            words = list(filler)
            for offset, (slot, phrase) in enumerate(zip(slots, planted)):
                words.insert(slot + offset, phrase)
            text = " ".join(words)
            entities, spans = extract_entities(career_kg, text)
            oracle = all_substring_matches({e: e for e in career_kg.entities}, text)
            # every reported span must be a genuine lexicon match
            assert {(s, e, ent) for (s, e), ent in zip(spans, entities)} <= oracle
            # and every planted phrase must be found
            got = set(entities)
            assert {"career_options", "nurse", "physician_assistant", "profession"} <= got


class TestExpandQuery:
    def test_career_augmented_text(self, career_kg):
        q = QueryDescription(id="d1", text=CAREER_QUERY)
        eq = expand_query(career_kg, q, max_hops=1)
        assert set(eq.entities) == CAREER_ENTITIES
        assert "career_options is related to career_choice, profession" in eq.augmented_text
        assert eq.augmented_text.startswith(
            "Want to consider career options career_options is related to "
            "career_choice, profession from becoming a physician's assistant "
            "physician_assistant is_a pa "
        )
        assert "nurse is_a psychiatric_nurse, licensed_practical_nurse, nurse_practitioner" in eq.augmented_text
        # sub-entity triples anchor after the covering phrase, never inside it
        assert "physician's assistant" in eq.augmented_text
        assert "physician is_a medical_doctor" in eq.augmented_text

    def test_same_at_default_hops(self, career_kg):
        # fixture has no chained subjects reachable from the query entities
        q = QueryDescription(id="d1", text=CAREER_QUERY)
        assert (
            expand_query(career_kg, q, max_hops=2).augmented_text
            == expand_query(career_kg, q, max_hops=1).augmented_text
        )

    def test_no_triples_keeps_text(self, career_kg):
        q = QueryDescription(id="d2", text="thinking about my career")
        eq = expand_query(career_kg, q)
        assert eq.augmented_text == q.text
        assert eq.entities == ["career"]

    def test_max_triples_cap(self, tmp_path):
        lines = [f"hub\tr\tleaf{i}" for i in range(7)]
        path = tmp_path / "hub.tsv"
        path.write_text("\n".join(lines) + "\n")
        kg = load_kg(path)
        eq = expand_query(
            kg, QueryDescription(id="h", text="the hub here"), max_triples_per_entity=3
        )
        assert eq.triples_by_entity["hub"] == kg.outgoing("hub")[:3]
        assert eq.augmented_text == "the hub hub r leaf0, leaf1, leaf2 here"

    def test_round_trip_strips_to_source(self, career_kg):
        q = QueryDescription(id="d1", text=CAREER_QUERY)
        eq = expand_query(career_kg, q, max_hops=2)
        assert strip_injections(eq) == CAREER_QUERY

    def test_injected_subjects_are_entities_or_visited(self, tmp_path):
        lines = ["a\tr\tb", "b\tr\tc", "c\tr\td"]
        path = tmp_path / "chain.tsv"
        path.write_text("\n".join(lines) + "\n")
        kg = load_kg(path)
        eq = expand_query(kg, QueryDescription(id="c", text="about a thing"), max_hops=2)
        visited = set(eq.entities) | {
            t.object for ts in eq.triples_by_entity.values() for t in ts
        }
        for ts in eq.triples_by_entity.values():
            for t in ts:
                assert t.subject in visited

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["career options", "nurse", "profession", "job"]),
            min_size=0,
            max_size=4,
        ),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_round_trip_property(self, career_kg, phrases, seed):
        rnd = random.Random(seed)
        words = [f"filler{rnd.randint(0, 999)}" for _ in range(6)]
        for phrase in phrases:
            words.insert(rnd.randint(0, len(words)), phrase)
        text = " ".join(words)
        eq = expand_query(career_kg, QueryDescription(id="p", text=text))
        assert strip_injections(eq) == text

    def test_extension_keeps_entities(self, career_kg):
        # planting another entity at the end must not lose earlier ones
        base = "talking about career options today"
        extended = base + " with a nurse"
        e_base, _ = extract_entities(career_kg, base)
        e_ext, _ = extract_entities(career_kg, extended)
        assert set(e_base) <= set(e_ext)
