import pytest

from iseeq.errors import EmptyInputError, ParseError
from iseeq.kg import Triple, canonical_entity, extract_triples, load_kg

from oracles import bfs_triples, dfs_triples_recursive


def write_kg(tmp_path, lines, name="kg.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoad:
    def test_career_example_lines(self, tmp_path):
        path = write_kg(
            tmp_path,
            [
                "career_options\tisrelatedto\tcareer_choice",
                "career_options\tisrelatedto\tprofession",
            ],
        )
        kg = load_kg(path)
        assert len(kg.entities) == 3
        assert kg.n_triples == 2
        assert kg.outgoing("career_options")[0].object == "career_choice"

    def test_duplicates_collapse(self, tmp_path):
        path = write_kg(tmp_path, ["a\tr\tb"] * 5)
        kg = load_kg(path)
        assert kg.n_triples == 1

    def test_malformed_line_names_file_and_line(self, tmp_path):
        lines = [f"s{i}\trel\to{i}" for i in range(8)]
        for bad in ("only_two_fields\trel", "not a triple at all"):
            path = write_kg(tmp_path, lines[:3] + [bad] + lines[3:])
            with pytest.raises(ParseError) as info:
                load_kg(path)
            assert str(info.value) == f"line 4: {path}: expected 3 tab-separated fields, got {bad!r}"

    def test_strict_raises_with_line_number(self, tmp_path):
        path = write_kg(tmp_path, ["a\tr\tb", "broken line"])
        with pytest.raises(ParseError, match="line 2") as info:
            load_kg(path)
        assert str(path) in str(info.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            load_kg(path)

    def test_canonicalization(self, tmp_path):
        path = write_kg(tmp_path, ["  Medical Doctor \tis_a\tPhysician  "])
        kg = load_kg(path)
        assert "medical_doctor" in kg.entities
        assert "physician" in kg.entities

    def test_canonical_entity(self):
        assert canonical_entity("  Career   Options ") == "career_options"


class TestExtract:
    def test_subject_rooted_only(self, tmp_path):
        path = write_kg(
            tmp_path,
            [
                "nurse\tis_a\tpsychiatric_nurse",
                "nurse\tis_a\tnurse_practitioner",
                "hospital\temploys\tnurse",
            ],
        )
        kg = load_kg(path)
        triples = extract_triples(kg, ["nurse"], max_hops=1)
        assert [t.object for t in triples] == ["psychiatric_nurse", "nurse_practitioner"]
        assert all(t.subject == "nurse" for t in triples)

    def test_empty_seeds(self, career_kg):
        assert extract_triples(career_kg, [], max_hops=2) == []

    def test_unknown_seed_skipped(self, career_kg):
        assert extract_triples(career_kg, ["zzz"], max_hops=1) == []

    def test_zero_hops_rejected(self, career_kg):
        with pytest.raises(ValueError):
            extract_triples(career_kg, ["nurse"], max_hops=0)

    def test_order_matches_recursive_walk_on_cyclic_graphs(self, tmp_path):
        import random

        rnd = random.Random(7)
        for trial in range(20):
            lines = {f"e{rnd.randrange(12)}\tr{rnd.randrange(2)}\te{rnd.randrange(12)}" for _ in range(30)}
            kg = load_kg(write_kg(tmp_path, sorted(lines), name=f"kg{trial}.tsv"))
            seeds = [f"e{rnd.randrange(12)}" for _ in range(3)]
            for hops in (1, 2, 3, 5):
                assert extract_triples(kg, seeds, max_hops=hops) == dfs_triples_recursive(kg, seeds, hops)

    def test_matches_bfs_oracle_on_random_dag(self, tmp_path):
        import random

        rnd = random.Random(20240)
        entities = [f"e{i}" for i in range(20)]
        raw = set()
        while len(raw) < 40:
            i, j = rnd.sample(range(20), 2)
            if i < j:  # forward edges only: a DAG
                raw.add((entities[i], f"r{rnd.randint(0, 3)}", entities[j]))
        lines = ["\t".join(t) for t in sorted(raw)]
        kg = load_kg(write_kg(tmp_path, lines))
        for hops in (1, 2, 3):
            seeds = [entities[1], entities[4], entities[7]]
            got = {t.as_tuple() for t in extract_triples(kg, seeds, max_hops=hops)}
            expected = bfs_triples(sorted(raw), seeds, hops)
            assert got == expected

    def test_matches_bfs_oracle_with_cycles(self, tmp_path):
        lines = ["a\tr\tb", "b\tr\tc", "c\tr\ta", "c\tr\td", "d\tr\te"]
        kg = load_kg(write_kg(tmp_path, lines))
        for hops in (1, 2, 3, 4, 5):
            got = {t.as_tuple() for t in extract_triples(kg, ["a"], max_hops=hops)}
            expected = bfs_triples(
                [tuple(line.split("\t")) for line in lines], ["a"], hops
            )
            assert got == expected

    def test_deterministic_and_deduped(self, career_kg):
        seeds = ["nurse", "career_options", "nurse"]
        first = extract_triples(career_kg, seeds, max_hops=2)
        second = extract_triples(career_kg, seeds, max_hops=2)
        assert first == second
        assert len({t.as_tuple() for t in first}) == len(first)

    def test_shallower_revisit_expands_deeper(self, tmp_path):
        # x is reached at depth 1 via a, and at depth 0 as a seed; its
        # children must still be expanded through the deeper allowance.
        lines = ["a\tr\tx", "x\tr\ty", "y\tr\tz"]
        kg = load_kg(write_kg(tmp_path, lines))
        got = {t.as_tuple() for t in extract_triples(kg, ["a", "x"], max_hops=2)}
        assert ("y", "r", "z") in got
