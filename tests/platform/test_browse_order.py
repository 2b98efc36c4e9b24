"""Browse reads an ordered view.

``Platform`` keeps the newest-first and top-rated keys sorted as
uploads, ratings and deletes arrive, over every owner and per owner, so
``WebInterface.browse`` slices a page instead of sorting the corpus. The
property: after any sequence of uploads, ratings, edits and deletes,
every page of both orders, with and without ``owner``, is the page a
full sort of ``Platform.contents()`` gives — ties on the timestamp or
the rating broken by the smaller pid.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_default_annotator
from repro.lod import build_lod_corpus
from repro.platform import Capture, Platform, WebInterface

USERS = ("ada", "bob", "cy")
#: the full sort each order stands for
ORDERS = {
    "newest": lambda item: (-item.timestamp, item.pid),
    "top-rated": lambda item: (-item.rating, item.pid),
}



@pytest.fixture(scope="module")
def world():
    corpus = build_lod_corpus()
    return corpus, build_default_annotator(corpus)


def _platform(world) -> Platform:
    corpus, annotator = world
    platform = Platform(corpus=corpus, annotator=annotator)
    for user in USERS:
        platform.register_user(user)
    return platform


def _upload(platform: Platform, user: str, timestamp: int) -> int:
    return platform.upload(Capture(
        username=user, title=f"picture at {timestamp}", tags=(),
        timestamp=timestamp,
    )).pid


def assert_pages_are_a_full_sort(platform: Platform) -> None:
    web = WebInterface(platform)
    contents = platform.contents()
    for owner in (None, *USERS, "nobody"):
        mine = [i for i in contents if owner is None or i.owner == owner]
        for order, key in ORDERS.items():
            expected = [item.pid for item in sorted(mine, key=key)]
            for size in (1, 3, 10):
                pages = max(1, -(-len(expected) // size))
                for page in range(1, pages + 2):
                    got = web.browse(page, size, owner=owner, order=order)
                    assert got.total == len(expected)
                    assert [item.pid for item in got.items] == (
                        expected[(page - 1) * size:page * size]
                    ), (owner, order, size, page)


#: (kind, user or which existing content, timestamp / rating / title)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("upload"), st.sampled_from(USERS),
                  st.integers(0, 4)),
        st.tuples(st.just("rate"), st.integers(0, 50),
                  st.sampled_from([0.0, 1.0, 2.5, 5.0, 3])),
        st.tuples(st.just("edit"), st.integers(0, 50),
                  st.sampled_from(["Mole", "Po", "night"])),
        st.tuples(st.just("delete"), st.integers(0, 50), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_every_page_equals_a_full_sort(world, ops):
    platform = _platform(world)
    for kind, who, value in ops:
        if kind == "upload":
            _upload(platform, who, value)  # few timestamps: many ties
        else:
            pids = [item.pid for item in platform.contents()]
            if not pids:
                continue
            pid = pids[who % len(pids)]
            if kind == "rate":
                platform.rate(pid, value)
            elif kind == "edit":
                platform.edit_content(pid, title=value)
            else:
                platform.delete_content(pid)
        assert_pages_are_a_full_sort(platform)


def test_contents_are_in_pid_order_after_deletes_and_new_uploads(world):
    platform = _platform(world)
    # timestamps fall as pids rise: insertion order is pid order only
    # because pids are handed out in upload order
    pids = [_upload(platform, USERS[n % 3], 100 - n) for n in range(6)]
    platform.delete_content(pids[0])
    platform.delete_content(pids[3])
    pids += [_upload(platform, "ada", 200), _upload(platform, "bob", 0)]
    expected = [pid for pid in pids if pid not in (pids[0], pids[3])]
    assert [item.pid for item in platform.contents()] == expected
    assert expected == sorted(expected)

