"""Output checks that do not trust the layers under test.

A class's *view* is built from ``parse_class`` output alone: names,
flags, members, constant values, and instructions with constant-pool
operands resolved and branch targets (and exception ranges) given as
instruction indices.  It ignores what the packed format may change:
constant-pool order, ``ldc`` versus ``ldc_w`` width, and the debug
attributes (SourceFile, LineNumberTable, LocalVariableTable) the
paper's format drops.  It never runs ``ir.build`` or the codec.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional

from repro.classfile import constant_pool as cp
from repro.classfile.attributes import (
    CodeAttribute,
    ConstantValueAttribute,
    ExceptionsAttribute,
)
from repro.classfile.bytecode import disassemble
from repro.classfile.classfile import ClassFile, parse_class
from repro.jar import read_jar

#: Attributes whose loss is part of the format (Section 2 of the paper).
DROPPED = {"SourceFile", "LineNumberTable", "LocalVariableTable"}

#: ldc_w is ldc with a two-byte index; the format picks the width.
LDC, LDC_W = 0x12, 0x13


def _constant(pool: cp.ConstantPool, index: int):
    """A pool entry with every index resolved to the values it names."""
    entry = pool[index]
    if isinstance(entry, (cp.Utf8, cp.IntegerConst, cp.LongConst)):
        return (type(entry).__name__, entry.value)
    if isinstance(entry, (cp.FloatConst, cp.DoubleConst)):
        return (type(entry).__name__, entry.bits)
    if isinstance(entry, cp.ClassInfo):
        return ("Class", pool.utf8_value(entry.name_index))
    if isinstance(entry, cp.StringConst):
        return ("String", pool.utf8_value(entry.utf8_index))
    if isinstance(entry, cp.NameAndType):
        return ("NameAndType", pool.utf8_value(entry.name_index),
                pool.utf8_value(entry.descriptor_index))
    return (type(entry).__name__,) + pool.member_ref(index)


def _code(pool: cp.ConstantPool, code: CodeAttribute):
    instructions = disassemble(code.code)
    index_of = {ins.offset: i for i, ins in enumerate(instructions)}
    index_of[len(code.code)] = len(instructions)
    rows = []
    for ins in instructions:
        opcode = LDC if ins.opcode == LDC_W else ins.opcode
        switch = None
        if ins.switch is not None:
            switch = (index_of[ins.switch.default], ins.switch.low,
                      tuple((key, index_of[target])
                            for key, target in ins.switch.pairs))
        rows.append((
            opcode, ins.wide, ins.local, ins.immediate,
            None if ins.cp_index is None else _constant(pool, ins.cp_index),
            None if ins.target is None else index_of[ins.target],
            ins.atype, ins.dims, ins.count, switch))
    handlers = tuple(
        (index_of[entry.start_pc], index_of[entry.end_pc],
         index_of[entry.handler_pc],
         pool.class_name(entry.catch_type) if entry.catch_type else None)
        for entry in code.exception_table)
    kept = tuple(sorted(a.name for a in code.attributes
                        if a.name not in DROPPED))
    return (code.max_stack, code.max_locals, tuple(rows), handlers, kept)


def _member(classfile: ClassFile, member):
    pool = classfile.pool
    attributes = []
    for attribute in member.attributes:
        if isinstance(attribute, CodeAttribute):
            attributes.append(("Code", _code(pool, attribute)))
        elif isinstance(attribute, ConstantValueAttribute):
            attributes.append(("ConstantValue",
                               _constant(pool, attribute.value_index)))
        elif isinstance(attribute, ExceptionsAttribute):
            attributes.append(("Exceptions", tuple(
                pool.class_name(i) for i in attribute.exception_indices)))
        elif attribute.name not in DROPPED:
            attributes.append((attribute.name,))
    return (classfile.member_name(member),
            classfile.member_descriptor(member), member.access_flags,
            tuple(sorted(attributes, key=repr)))


def class_view(classfile: ClassFile):
    return (classfile.name, classfile.access_flags, classfile.super_name,
            tuple(classfile.interface_names()),
            tuple(_member(classfile, f) for f in classfile.fields),
            tuple(_member(classfile, m) for m in classfile.methods),
            tuple(sorted(a.name for a in classfile.attributes
                         if a.name not in DROPPED)))


def jar_classes(jar: bytes) -> List[ClassFile]:
    """The classes of a jar, in entry order, through ``parse_class``."""
    return [parse_class(data) for name, data in read_jar(jar)
            if name.endswith(".class")]


def jar_views(jar: bytes, memo: Optional[dict] = None) -> Dict[str, tuple]:
    """Class name -> view for every class of a jar.  ``memo`` caches
    views by the class bytes' digest, for jars that share classes."""
    memo = {} if memo is None else memo
    views = {}
    for name, data in read_jar(jar):
        if not name.endswith(".class"):
            continue
        digest = hashlib.sha256(data).digest()
        if digest not in memo:
            classfile = parse_class(data)
            memo[digest] = (classfile.name, class_view(classfile))
        class_name, view = memo[digest]
        views[class_name] = view
    return views


def view_mismatches(expected: Dict[str, tuple],
                    actual: Dict[str, tuple]) -> List[str]:
    """Names of classes whose views differ (or exist on one side)."""
    return sorted(name for name in set(expected) | set(actual)
                  if expected.get(name) != actual.get(name))


# -- behaviour on repro.jvm -------------------------------------------

#: Interpreter step budget per method call.
MAX_STEPS = 100_000


def _argument(descriptor: str):
    from repro.jvm import JavaArray, JFloat, JLong

    if descriptor in ("I", "B", "S", "C", "Z"):
        return 3
    if descriptor == "J":
        return JLong(7)
    if descriptor == "F":
        return JFloat(1.5)
    if descriptor == "D":
        return 2.5
    if descriptor == "Ljava/lang/String;":
        return "probe"
    if descriptor.startswith("["):
        return JavaArray.new(descriptor[1:], 4)
    return None


def _comparable(value):
    from repro.jvm import JavaArray, JavaObject, JFloat

    if isinstance(value, JavaObject):
        return ("object", value.class_name)
    if isinstance(value, JavaArray):
        return ("array", value.element_descriptor,
                [_comparable(v) for v in value.elements])
    if isinstance(value, JFloat):
        return ("float", repr(value.value))
    if isinstance(value, float):
        return ("double", repr(value))
    return value


def static_methods(classes: List[ClassFile]):
    """``(class, method, descriptor)`` of every static method."""
    from repro.classfile.constants import AccessFlags

    rows = []
    for classfile in classes:
        for member in classfile.methods:
            name = classfile.member_name(member)
            if member.access_flags & AccessFlags.STATIC \
                    and name != "<clinit>":
                rows.append((classfile.name, name,
                             classfile.member_descriptor(member)))
    return sorted(rows)


def behaviour(classes: List[ClassFile], target) -> tuple:
    """Return value or thrown class, plus console output, of one
    static method called with synthesized arguments."""
    from repro.classfile.descriptors import parse_method_descriptor
    from repro.jvm import JavaThrow, Machine, MachineError
    from repro.jvm.natives import NativeError

    class_name, method, descriptor = target
    machine = Machine(classes, max_steps=MAX_STEPS)
    args = [_argument(a) for a in parse_method_descriptor(descriptor)[0]]
    try:
        outcome = ("ok", _comparable(
            machine.call(class_name, method, descriptor, *args)))
    except JavaThrow as thrown:
        outcome = ("throw", thrown.throwable.class_name)
    except MachineError:
        outcome = ("budget",)
    except NativeError as exc:
        outcome = ("native", str(exc))
    return outcome + (machine.stdout(),)


def sample_methods(classes: List[ClassFile], seed: int, sample: int):
    """A seeded sample of the classes' static methods."""
    targets = static_methods(classes)
    return random.Random(seed).sample(targets, min(sample, len(targets)))


def behaviour_mismatches(before: List[ClassFile], after: List[ClassFile],
                         targets) -> List[str]:
    """Run each target method on both class sets."""
    return [".".join(t[:2]) for t in targets
            if behaviour(before, t) != behaviour(after, t)]
