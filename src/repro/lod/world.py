"""The deterministic synthetic world behind the LOD datasets.

The paper imports DBpedia, Geonames and LinkedGeoData dumps into its
triple store. Offline, we generate a compact but behaviourally faithful
world instead: European cities, their monuments and commercial POIs,
a few celebrities, plus the *pathological* structures the annotation
pipeline must survive — redirects ("Coliseum" → "Colosseum"),
disambiguation pages ("Paris" the city vs. the Trojan prince, "Mole" the
animal vs. the monument) and multilingual labels/abstracts.

Everything here is plain data; the graph builders in
:mod:`repro.lod.dbpedia` / :mod:`repro.lod.geonames` /
:mod:`repro.lod.linkedgeodata` turn it into RDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class CityInfo:
    """A city present in all three datasets."""

    key: str               # DBpedia local name, e.g. "Turin"
    geonames_id: int
    longitude: float
    latitude: float
    country: str
    population: int
    labels: Dict[str, str]          # lang → label
    abstracts: Dict[str, str]       # lang → abstract


@dataclass(frozen=True)
class PoiInfo:
    """A point of interest (monument, museum, restaurant...)."""

    key: str                # DBpedia/LGD local name
    city: str               # CityInfo.key
    category: str           # monument|museum|church|park|station|stadium|
    #                         fountain|restaurant|hotel|tourism
    longitude: float
    latitude: float
    labels: Dict[str, str]
    abstracts: Dict[str, str] = field(default_factory=dict)
    website: Optional[str] = None
    commercial: bool = False  # excluded from POI→DBpedia analysis (§2.2.1)
    in_dbpedia: bool = True   # restaurants/hotels usually are not


@dataclass(frozen=True)
class PersonInfo:
    """A celebrity present in DBpedia (and Evri)."""

    key: str
    labels: Dict[str, str]
    abstracts: Dict[str, str]
    birth_city: Optional[str] = None


@dataclass(frozen=True)
class RedirectInfo:
    """A DBpedia redirect: alternate title → canonical resource."""

    source: str
    target: str


@dataclass(frozen=True)
class DisambiguationInfo:
    """A DBpedia disambiguation page listing candidate resources."""

    key: str                 # e.g. "Paris_(disambiguation)"
    label: str
    options: Tuple[str, ...]  # local names of disambiguated resources


CITIES: List[CityInfo] = [
    CityInfo(
        key="Turin",
        geonames_id=3165524,
        longitude=7.6869,
        latitude=45.0703,
        country="Italy",
        population=872_367,
        labels={"en": "Turin", "it": "Torino", "fr": "Turin",
                "es": "Turín", "de": "Turin"},
        abstracts={
            "en": "Turin is a city in northern Italy, capital of "
                  "Piedmont, known for its baroque architecture and the "
                  "Mole Antonelliana.",
            "it": "Torino è una città dell'Italia settentrionale, "
                  "capoluogo del Piemonte, famosa per la sua architettura "
                  "barocca e la Mole Antonelliana.",
        },
    ),
    CityInfo(
        key="Milan",
        geonames_id=3173435,
        longitude=9.1900,
        latitude=45.4642,
        country="Italy",
        population=1_366_180,
        labels={"en": "Milan", "it": "Milano", "fr": "Milan",
                "es": "Milán", "de": "Mailand"},
        abstracts={
            "en": "Milan is a metropolis in Italy's Lombardy region, "
                  "a global capital of fashion and design.",
            "it": "Milano è una metropoli della Lombardia, capitale "
                  "mondiale della moda e del design.",
        },
    ),
    CityInfo(
        key="Rome",
        geonames_id=3169070,
        longitude=12.4964,
        latitude=41.9028,
        country="Italy",
        population=2_873_000,
        labels={"en": "Rome", "it": "Roma", "fr": "Rome",
                "es": "Roma", "de": "Rom"},
        abstracts={
            "en": "Rome is the capital city of Italy, home of the "
                  "Colosseum and the Roman Forum.",
            "it": "Roma è la capitale d'Italia, sede del Colosseo e dei "
                  "Fori Imperiali.",
        },
    ),
    CityInfo(
        key="Paris",
        geonames_id=2988507,
        longitude=2.3522,
        latitude=48.8566,
        country="France",
        population=2_148_000,
        labels={"en": "Paris", "it": "Parigi", "fr": "Paris",
                "es": "París", "de": "Paris"},
        abstracts={
            "en": "Paris is the capital of France, famous for the "
                  "Eiffel Tower and the Louvre.",
            "it": "Parigi è la capitale della Francia, famosa per la "
                  "Torre Eiffel e il Louvre.",
        },
    ),
    CityInfo(
        key="Barcelona",
        geonames_id=3128760,
        longitude=2.1734,
        latitude=41.3851,
        country="Spain",
        population=1_620_000,
        labels={"en": "Barcelona", "it": "Barcellona", "fr": "Barcelone",
                "es": "Barcelona", "de": "Barcelona"},
        abstracts={
            "en": "Barcelona is the cosmopolitan capital of Spain's "
                  "Catalonia region, defined by Gaudí's architecture.",
            "es": "Barcelona es la capital cosmopolita de Cataluña, "
                  "definida por la arquitectura de Gaudí.",
        },
    ),
    CityInfo(
        key="Berlin",
        geonames_id=2950159,
        longitude=13.4050,
        latitude=52.5200,
        country="Germany",
        population=3_769_000,
        labels={"en": "Berlin", "it": "Berlino", "fr": "Berlin",
                "es": "Berlín", "de": "Berlin"},
        abstracts={
            "en": "Berlin is Germany's capital, known for the "
                  "Brandenburg Gate and its art scene.",
            "de": "Berlin ist die Hauptstadt Deutschlands, bekannt für "
                  "das Brandenburger Tor.",
        },
    ),
    CityInfo(
        key="Florence",
        geonames_id=3176959,
        longitude=11.2558,
        latitude=43.7696,
        country="Italy",
        population=382_258,
        labels={"en": "Florence", "it": "Firenze", "fr": "Florence",
                "es": "Florencia", "de": "Florenz"},
        abstracts={
            "en": "Florence is the capital of Tuscany and the cradle of "
                  "the Renaissance.",
            "it": "Firenze è il capoluogo della Toscana e la culla del "
                  "Rinascimento.",
        },
    ),
]

POIS: List[PoiInfo] = [
    # --- Turin -----------------------------------------------------------
    PoiInfo(
        key="Mole_Antonelliana", city="Turin", category="monument",
        longitude=7.6934, latitude=45.0692,
        labels={"en": "Mole Antonelliana", "it": "Mole Antonelliana"},
        abstracts={
            "en": "The Mole Antonelliana is the landmark tower of Turin, "
                  "today housing the National Museum of Cinema.",
            "it": "La Mole Antonelliana è il monumento simbolo di "
                  "Torino, oggi sede del Museo Nazionale del Cinema.",
        },
    ),
    PoiInfo(
        key="Palazzo_Madama", city="Turin", category="monument",
        longitude=7.6858, latitude=45.0711,
        labels={"en": "Palazzo Madama", "it": "Palazzo Madama"},
        abstracts={"it": "Palazzo Madama è un palazzo storico di Torino "
                         "in Piazza Castello."},
    ),
    PoiInfo(
        key="Piazza_Castello", city="Turin", category="monument",
        longitude=7.6852, latitude=45.0710,
        labels={"en": "Piazza Castello", "it": "Piazza Castello"},
        abstracts={"it": "Piazza Castello è la piazza principale di "
                         "Torino."},
    ),
    PoiInfo(
        key="Museo_Egizio", city="Turin", category="museum",
        longitude=7.6843, latitude=45.0685,
        labels={"en": "Egyptian Museum", "it": "Museo Egizio"},
        abstracts={"it": "Il Museo Egizio di Torino ospita la più antica "
                         "collezione di antichità egizie."},
    ),
    PoiInfo(
        key="Parco_del_Valentino", city="Turin", category="park",
        longitude=7.6855, latitude=45.0554,
        labels={"en": "Parco del Valentino", "it": "Parco del Valentino"},
        abstracts={"it": "Il Parco del Valentino è un parco lungo il Po "
                         "a Torino."},
    ),
    PoiInfo(
        key="Gran_Madre_di_Dio", city="Turin", category="church",
        longitude=7.6995, latitude=45.0628,
        labels={"en": "Gran Madre", "it": "Gran Madre di Dio"},
        abstracts={"it": "La Gran Madre di Dio è una chiesa "
                         "neoclassica di Torino."},
    ),
    PoiInfo(
        key="Porta_Nuova_railway_station", city="Turin",
        category="station", longitude=7.6778, latitude=45.0625,
        labels={"en": "Porta Nuova railway station", "it": "Porta Nuova"},
        abstracts={"it": "Porta Nuova è la principale stazione "
                         "ferroviaria di Torino."},
    ),
    PoiInfo(
        key="Juventus_Stadium", city="Turin", category="stadium",
        longitude=7.6412, latitude=45.1096,
        labels={"en": "Juventus Stadium", "it": "Juventus Stadium"},
        abstracts={"en": "Juventus Stadium is a football stadium in "
                         "Turin."},
    ),
    # Turin restaurants / hotels (LinkedGeoData only, commercial)
    PoiInfo(
        key="Ristorante_Del_Cambio", city="Turin", category="restaurant",
        longitude=7.6860, latitude=45.0707,
        labels={"it": "Ristorante Del Cambio"},
        website="http://delcambio.example.org",
        commercial=True, in_dbpedia=False,
    ),
    PoiInfo(
        key="Trattoria_Valenza", city="Turin", category="restaurant",
        longitude=7.6921, latitude=45.0701,
        labels={"it": "Trattoria Valenza"},
        website="http://valenza.example.org",
        commercial=True, in_dbpedia=False,
    ),
    PoiInfo(
        key="Caffe_Mulassano", city="Turin", category="restaurant",
        longitude=7.6849, latitude=45.0706,
        labels={"it": "Caffè Mulassano"},
        website="http://mulassano.example.org",
        commercial=True, in_dbpedia=False,
    ),
    PoiInfo(
        key="Hotel_Principi", city="Turin", category="hotel",
        longitude=7.6801, latitude=45.0664,
        labels={"it": "Hotel Principi di Piemonte"},
        website="http://principi.example.org",
        commercial=True, in_dbpedia=False,
    ),
    # --- Rome ------------------------------------------------------------
    PoiInfo(
        key="Colosseum", city="Rome", category="monument",
        longitude=12.4924, latitude=41.8902,
        labels={"en": "Colosseum", "it": "Colosseo"},
        abstracts={
            "en": "The Colosseum is an ancient amphitheatre in the "
                  "centre of Rome, also known as the Roman Colosseum.",
            "it": "Il Colosseo è un anfiteatro di epoca romana al "
                  "centro di Roma.",
        },
    ),
    PoiInfo(
        key="Trevi_Fountain", city="Rome", category="fountain",
        longitude=12.4833, latitude=41.9009,
        labels={"en": "Trevi Fountain", "it": "Fontana di Trevi"},
        abstracts={"en": "The Trevi Fountain is the largest baroque "
                         "fountain in Rome."},
    ),
    PoiInfo(
        key="Pantheon,_Rome", city="Rome", category="monument",
        longitude=12.4769, latitude=41.8986,
        labels={"en": "Pantheon", "it": "Pantheon"},
        abstracts={"en": "The Pantheon is a former Roman temple in "
                         "Rome."},
    ),
    PoiInfo(
        key="Osteria_Romana", city="Rome", category="restaurant",
        longitude=12.4930, latitude=41.8910,
        labels={"it": "Osteria Romana"},
        website="http://osteriaromana.example.org",
        commercial=True, in_dbpedia=False,
    ),
    # --- Paris -----------------------------------------------------------
    PoiInfo(
        key="Eiffel_Tower", city="Paris", category="monument",
        longitude=2.2945, latitude=48.8584,
        labels={"en": "Eiffel Tower", "fr": "Tour Eiffel",
                "it": "Torre Eiffel"},
        abstracts={
            "en": "The Eiffel Tower is a wrought-iron lattice tower in "
                  "Paris.",
            "fr": "La tour Eiffel est une tour de fer puddlé à Paris.",
        },
    ),
    PoiInfo(
        key="Louvre", city="Paris", category="museum",
        longitude=2.3376, latitude=48.8606,
        labels={"en": "Louvre", "fr": "Musée du Louvre"},
        abstracts={"en": "The Louvre is the world's largest art "
                         "museum, in Paris."},
    ),
    PoiInfo(
        key="Notre-Dame_de_Paris", city="Paris", category="church",
        longitude=2.3499, latitude=48.8530,
        labels={"en": "Notre-Dame de Paris", "fr": "Notre-Dame de Paris"},
        abstracts={"fr": "Notre-Dame de Paris est la cathédrale de "
                         "Paris."},
    ),
    PoiInfo(
        key="Bistrot_Parisien", city="Paris", category="restaurant",
        longitude=2.2950, latitude=48.8580,
        labels={"fr": "Bistrot Parisien"},
        website="http://bistrot.example.org",
        commercial=True, in_dbpedia=False,
    ),
    # --- Barcelona ---------------------------------------------------------
    PoiInfo(
        key="Sagrada_Familia", city="Barcelona", category="church",
        longitude=2.1744, latitude=41.4036,
        labels={"en": "Sagrada Família", "es": "Sagrada Familia"},
        abstracts={"en": "The Sagrada Família is Gaudí's unfinished "
                         "basilica in Barcelona."},
    ),
    PoiInfo(
        key="Park_Guell", city="Barcelona", category="park",
        longitude=2.1527, latitude=41.4145,
        labels={"en": "Park Güell", "es": "Parque Güell"},
        abstracts={"en": "Park Güell is a public park designed by "
                         "Gaudí in Barcelona."},
    ),
    # --- Berlin ------------------------------------------------------------
    PoiInfo(
        key="Brandenburg_Gate", city="Berlin", category="monument",
        longitude=13.3777, latitude=52.5163,
        labels={"en": "Brandenburg Gate", "de": "Brandenburger Tor"},
        abstracts={"en": "The Brandenburg Gate is an 18th-century "
                         "monument in Berlin."},
    ),
    # --- Florence ------------------------------------------------------------
    PoiInfo(
        key="Ponte_Vecchio", city="Florence", category="monument",
        longitude=11.2531, latitude=43.7679,
        labels={"en": "Ponte Vecchio", "it": "Ponte Vecchio"},
        abstracts={"it": "Il Ponte Vecchio è un ponte medievale sull'"
                         "Arno a Firenze."},
    ),
    PoiInfo(
        key="Uffizi", city="Florence", category="museum",
        longitude=11.2556, latitude=43.7685,
        labels={"en": "Uffizi Gallery", "it": "Galleria degli Uffizi"},
        abstracts={"it": "Gli Uffizi sono uno dei musei più importanti "
                         "del mondo, a Firenze."},
    ),
]

PEOPLE: List[PersonInfo] = [
    PersonInfo(
        key="Leonardo_da_Vinci",
        labels={"en": "Leonardo da Vinci", "it": "Leonardo da Vinci"},
        abstracts={"en": "Leonardo da Vinci was an Italian Renaissance "
                         "polymath."},
        birth_city="Florence",
    ),
    PersonInfo(
        key="Giuseppe_Verdi",
        labels={"en": "Giuseppe Verdi", "it": "Giuseppe Verdi"},
        abstracts={"en": "Giuseppe Verdi was an Italian opera "
                         "composer."},
        birth_city="Milan",
    ),
    PersonInfo(
        key="Antonio_Gaudi",
        labels={"en": "Antoni Gaudí", "es": "Antoni Gaudí"},
        abstracts={"en": "Antoni Gaudí was a Catalan architect, author "
                         "of the Sagrada Família."},
        birth_city="Barcelona",
    ),
    PersonInfo(
        key="Paris_(mythology)",
        labels={"en": "Paris (mythology)"},
        abstracts={"en": "Paris is a figure of Greek mythology, prince "
                         "of Troy."},
    ),
    PersonInfo(
        key="Alessandro_Antonelli",
        labels={"en": "Alessandro Antonelli", "it": "Alessandro "
                                                    "Antonelli"},
        abstracts={"it": "Alessandro Antonelli fu l'architetto della "
                         "Mole Antonelliana."},
        birth_city="Turin",
    ),
]

REDIRECTS: List[RedirectInfo] = [
    RedirectInfo("Coliseum", "Colosseum"),
    RedirectInfo("Roman_Colosseum", "Colosseum"),
    RedirectInfo("Torino", "Turin"),
    RedirectInfo("Tour_Eiffel", "Eiffel_Tower"),
    RedirectInfo("Mole_(Turin)", "Mole_Antonelliana"),
    RedirectInfo("La_Sagrada_Familia", "Sagrada_Familia"),
]

DISAMBIGUATIONS: List[DisambiguationInfo] = [
    DisambiguationInfo(
        key="Paris_(disambiguation)",
        label="Paris",
        options=("Paris", "Paris_(mythology)"),
    ),
    DisambiguationInfo(
        key="Mole_(disambiguation)",
        label="Mole",
        options=("Mole_Antonelliana", "Mole_(animal)"),
    ),
    DisambiguationInfo(
        key="Turin_(disambiguation)",
        label="Turin",
        options=("Turin", "Turin,_New_York"),
    ),
]

#: Extra plain resources referenced only by disambiguation pages.
MINOR_RESOURCES: Dict[str, Dict[str, str]] = {
    "Mole_(animal)": {"en": "Mole (animal)"},
    "Turin,_New_York": {"en": "Turin, New York"},
}


def poi_by_key(key: str) -> PoiInfo:
    for poi in POIS:
        if poi.key == key:
            return poi
    raise KeyError(key)
