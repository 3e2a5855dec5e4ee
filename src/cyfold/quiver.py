"""Quivers: vertices and named arrows carrying a cohomological and an
Adams degree.  quiveralg builds path algebras on them and re-exports both
classes; the translation-quiver code in cluster needs only this module.
"""


class Arrow:
    __slots__ = ("name", "source", "target", "cdeg", "adeg")

    def __init__(self, name, source, target, cdeg=0, adeg=0):
        self.name = name
        self.source = source
        self.target = target
        self.cdeg = cdeg
        self.adeg = adeg

    def __repr__(self):
        return f"{self.name}: {self.source}->{self.target}"


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be unique")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} references undeclared vertex")
        self.arrow_by_name = {a.name: a for a in self.arrows}

    def is_acyclic(self):
        out = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a.target)
        state = {}

        def visit(v):
            state[v] = 1
            for w in out[v]:
                if state.get(w) == 1:
                    return False
                if w not in state and not visit(w):
                    return False
            state[v] = 2
            return True

        return all(visit(v) for v in self.vertices if v not in state)
