"""Tests for the CN/SAN information-type classifier (§6)."""

import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cnsan
from repro.core.cnsan import CnSanClassifier


@pytest.fixture(scope="module")
def classifier():
    return CnSanClassifier()


CAMPUS_ORG = "State University"


class TestClassifier:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("example.com", "Domain"),
            ("www.sub.example.co.uk", "Domain"),
            ("*.wildcard.example.org", "Domain"),
            ("192.0.2.15", "IP"),
            ("2001:db8::1", "IP"),
            ("12:34:56:AB:CD:EF", "MAC"),
            ("12-34-56-AB-CD-EF", "MAC"),
            ("sip:+14345551234@voip.university.edu", "SIP"),
            ("user@example.com", "Email"),
            ("localhost", "Localhost"),
            ("localhost.localdomain", "Localhost"),
            ("John Smith", "PersonalName"),
            ("Smith, John", "PersonalName"),
            ("WebRTC", "OrgProduct"),
            ("hangouts", "OrgProduct"),
            ("twilio", "OrgProduct"),
            ("Hybrid Runbook Worker", "OrgProduct"),
            ("Internet Widgits Pty Ltd", "OrgProduct"),
            ("d41d8cd98f00b204e9800998ecf8427e", "Unidentified"),
            ("123e4567-e89b-12d3-a456-426614174000", "Unidentified"),
            ("__transfer__", "Unidentified"),
            ("Dtls", "Unidentified"),
            ("", "Unidentified"),
        ],
    )
    def test_types(self, classifier, value, expected):
        assert classifier.classify(value) == expected

    def test_user_account_requires_campus_issuer(self, classifier):
        assert classifier.classify("hd7gr", issuer_org=CAMPUS_ORG) == "UserAccount"
        assert classifier.classify(
            "hd7gr", issuer_cn="State University Device CA"
        ) == "UserAccount"
        # Same pattern, non-campus issuer: falls through to Unidentified.
        assert classifier.classify("hd7gr", issuer_org="Acme Inc") != "UserAccount"
        assert classifier.classify("hd7gr") != "UserAccount"

    def test_priority_sip_over_email(self, classifier):
        # SIP URIs contain '@' but must classify as SIP.
        assert classifier.classify("sip:me@host.example.com") == "SIP"

    def test_priority_localhost_over_domain(self, classifier):
        assert classifier.classify("localhost.localdomain") == "Localhost"

    def test_custom_campus_markers(self):
        classifier = CnSanClassifier(campus_issuer_markers=("acme college",))
        assert classifier.classify("ab1cd", issuer_org="Acme College") == "UserAccount"


_VALUES = st.one_of(
    st.sampled_from([
        "example.com", "192.0.2.15", "12:34:56:AB:CD:EF", "sip:a@b.example",
        "user@example.com", "localhost", "John Smith", "WebRTC", "Amazon",
        "d41d8cd98f00b204e9800998ecf8427e", "", "  hd7gr  ",
    ]),
    st.from_regex(r"[a-z]{2,3}[0-9][a-z]{2,3}", fullmatch=True),
    st.text(max_size=24),
)
_ISSUER_FIELDS = st.one_of(
    st.none(),
    st.sampled_from([
        "State University", "State University Device CA", "Acme College",
        "ACME COLLEGE Issuing CA", "Acme Inc", "",
    ]),
    st.text(max_size=12),
)
_MARKERS = st.sampled_from([None, ("acme college",), ("UNIVERSITY", "device ca")])


class TestClassifierMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        markers=_MARKERS,
        calls=st.lists(
            st.tuples(_VALUES, _ISSUER_FIELDS, _ISSUER_FIELDS),
            min_size=1, max_size=25,
        ),
        cap=st.integers(min_value=1, max_value=8),
    )
    def test_memoized_equals_fresh(self, markers, calls, cap):
        """Repeated and interleaved calls on a memoizing classifier (and
        on the module default) agree with a fresh, un-memoized
        classification, and no memo outgrows its cap."""
        kwargs = {} if markers is None else {"campus_issuer_markers": markers}
        memoized = [CnSanClassifier(**kwargs), cnsan._DEFAULT_CLASSIFIER]
        fresh = [CnSanClassifier(**kwargs), CnSanClassifier()]
        with mock.patch.object(cnsan, "_CLASSIFY_MEMO_MAX", cap):
            # Filled under the real cap by earlier tests.
            cnsan._DEFAULT_CLASSIFIER._memo.clear()
            for value, org, cn in calls + calls[::-1] + calls:
                for classifier, reference in zip(memoized, fresh):
                    got = classifier.classify(value, org, cn)
                    assert got == reference._classify(value, org, cn)
                    assert len(classifier._memo) <= cap

    def test_tables_share_the_default_classifier(self, small_result):
        from repro.core.cnsan import information_types, unidentified_breakdown

        memo = cnsan._DEFAULT_CLASSIFIER._memo
        memo.clear()
        first = information_types(small_result.enriched)
        filled = len(memo)
        assert filled > 0
        # A second finalize over the same population adds no entries.
        assert information_types(small_result.enriched) == first
        unidentified_breakdown(small_result.enriched)
        assert len(memo) == filled

    def test_partials_pickle_no_classifier_state(self, small_result):
        from repro.core import protocol

        context = protocol.AnalysisContext(bundle=small_result.enriched.bundle)
        names = ("table8", "table9", "table13b", "table14b")
        partials = protocol.create_partials(names, context)
        protocol.update_partials(partials, small_result.enriched.connections)
        for partial in partials.values():
            partial.finalize()
        blob = pickle.dumps(partials)
        assert b"CnSanClassifier" not in blob
        assert b"NerClassifier" not in blob


class TestTables:
    def test_utilization_groups(self, small_result):
        from repro.core.cnsan import utilization_table

        rows = utilization_table(small_result.enriched)
        groups = {r.group for r in rows}
        assert "Server certs." in groups and "Client certs." in groups
        for row in rows:
            assert 0 <= row.non_empty_cn <= row.total
            assert 0 <= row.non_empty_san <= row.total

    def test_cn_dominates_san(self, small_result):
        """Table 7's headline: CN is used far more than SAN."""
        from repro.core.cnsan import utilization_table

        rows = utilization_table(small_result.enriched)
        client = next(r for r in rows if r.group == "Client certs.")
        assert client.non_empty_cn > client.non_empty_san

    def test_information_types_matrix(self, small_result):
        from repro.core.cnsan import information_types

        matrix = information_types(small_result.enriched)
        total_cells = sum(sum(c.values()) for c in matrix.counts.values())
        assert total_cells > 0
        # Every counted type is a known type.
        from repro.core.cnsan import INFO_TYPES

        for counter in matrix.counts.values():
            assert set(counter) <= set(INFO_TYPES)

    def test_client_private_has_sensitive_types(self, medium_result):
        """§6.3.4: client certs from private CAs include user accounts
        and personal names."""
        from repro.core.cnsan import information_types

        matrix = information_types(medium_result.enriched)
        assert matrix.cell("Client/Private", "CN", "UserAccount") > 0
        assert matrix.cell("Client/Private", "CN", "PersonalName") > 0
        assert matrix.cell("Client/Private", "CN", "OrgProduct") > 0

    def test_server_public_dominated_by_domains(self, medium_result):
        from repro.core.cnsan import information_types

        matrix = information_types(medium_result.enriched)
        domains = matrix.cell("Server/Public", "CN", "Domain")
        total = matrix.total("Server/Public", "CN")
        assert total > 0
        # Paper: 99.94% domains; at simulation scale the FNMT cohort (the
        # paper's only non-domain server-public CNs) weighs more.
        assert domains / total > 0.6
        others = {
            t: matrix.cell("Server/Public", "CN", t)
            for t in ("PersonalName", "UserAccount", "Email", "MAC", "SIP")
        }
        assert not any(others.values()), others

    def test_unidentified_breakdown(self, medium_result):
        from repro.core.cnsan import unidentified_breakdown

        rows = unidentified_breakdown(medium_result.enriched)
        assert rows
        for row in rows:
            parts = (
                row.non_random + row.random_by_issuer + row.random_len8
                + row.random_len32 + row.random_len36 + row.random_other
            )
            assert parts == row.total

    def test_shared_population_disjoint_from_mutual(self, small_result):
        from repro.core.cnsan import mutual_population, shared_population

        mutual = {p.fingerprint for p in mutual_population(small_result.enriched)}
        shared = {p.fingerprint for p in shared_population(small_result.enriched)}
        assert not mutual & shared

    def test_non_mutual_population_excludes_mutual(self, small_result):
        from repro.core.cnsan import non_mutual_server_population

        for profile in non_mutual_server_population(small_result.enriched):
            assert not profile.used_in_mutual
            assert profile.used_as_server
