//! Offline stand-in for the [`serde`](https://crates.io/crates/serde) crate.
//!
//! The build environment has no crates.io access, so this crate vendors the
//! trait surface the workspace uses. Serialization mirrors serde's real
//! design (a [`Serializer`] driven by [`Serialize`] impls, with
//! [`ser::SerializeSeq`]/[`ser::SerializeStruct`] sub-builders).
//! Deserialization is *simplified*: instead of serde's visitor machinery,
//! [`Deserializer`] exposes typed `take_*` accessors over an underlying
//! tree (the only deserializer in the workspace is `serde_json`'s
//! `Value`-backed one, which makes the accessors trivially implementable).
//! In place of `#[derive(Serialize, Deserialize)]`, [`fields!`] declares
//! a struct's wire form once, as the list of its fields; `fields!(T as
//! str)` gives a type the string form of its `Display`/`FromStr` pair.

#![forbid(unsafe_code)]

use std::fmt::Display;

/// Deserialization-side error plumbing.
pub mod de {
    /// Errors constructible from a message, raised by `Deserialize` impls.
    pub trait Error: Sized + std::fmt::Display + std::fmt::Debug {
        /// Build an error carrying `msg`.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

/// Serialization-side error plumbing and sub-builders.
pub mod ser {
    use super::Serialize;

    /// Errors constructible from a message, raised by `Serialize` impls.
    pub trait Error: Sized + std::fmt::Display + std::fmt::Debug {
        /// Build an error carrying `msg`.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    /// Incremental sequence serializer returned by
    /// [`Serializer::serialize_seq`](super::Serializer::serialize_seq).
    pub trait SerializeSeq {
        /// Final output type.
        type Ok;
        /// Error type.
        type Error;
        /// Append one element.
        fn serialize_element<T: Serialize + ?Sized>(
            &mut self,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Finish the sequence.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// Incremental struct serializer returned by
    /// [`Serializer::serialize_struct`](super::Serializer::serialize_struct).
    pub trait SerializeStruct {
        /// Final output type.
        type Ok;
        /// Error type.
        type Error;
        /// Append one named field.
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Finish the struct.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }
}

/// A data format that can serialize the serde data model.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error type.
    type Error: ser::Error;
    /// Sequence sub-builder.
    type SerializeSeq: ser::SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Struct sub-builder.
    type SerializeStruct: ser::SerializeStruct<Ok = Self::Ok, Error = Self::Error>;

    /// Serialize a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Serialize a boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Serialize an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Serialize a signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Serialize a float.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Serialize `Option::None`.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    /// Serialize `Option::Some(value)`.
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    /// Begin a sequence of `len` elements (if known).
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Begin a struct with `len` fields.
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
}

/// Types that can serialize themselves into any [`Serializer`].
pub trait Serialize {
    /// Drive `serializer` with this value's structure.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A data format that can be deserialized from.
///
/// Simplified model: deserializers are cheap handles (hence `Clone`) over a
/// parsed tree, and expose typed accessors instead of serde's visitors.
pub trait Deserializer<'de>: Sized + Clone {
    /// Error type.
    type Error: de::Error;

    /// Expect a string.
    fn take_str(self) -> Result<String, Self::Error>;
    /// Expect a boolean.
    fn take_bool(self) -> Result<bool, Self::Error>;
    /// Expect an unsigned integer.
    fn take_u64(self) -> Result<u64, Self::Error>;
    /// Expect a signed integer.
    fn take_i64(self) -> Result<i64, Self::Error>;
    /// Expect a float (integers coerce).
    fn take_f64(self) -> Result<f64, Self::Error>;
    /// Expect null-or-value; `None` for null.
    fn take_option(self) -> Result<Option<Self>, Self::Error>;
    /// Expect a sequence; returns one sub-deserializer per element.
    fn take_seq(self) -> Result<Vec<Self>, Self::Error>;
    /// Expect a map/struct and project the field `name`. Missing fields
    /// surface as `take_option() == None` on the projected handle, so
    /// optional fields deserialize cleanly.
    fn take_field(self, name: &'static str) -> Result<Self, Self::Error>;
}

/// Types that can deserialize themselves out of any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Extract `Self` from `deserializer`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Implement [`Serialize`] and [`Deserialize`] from one declaration.
///
/// * `fields!(T { a, b, c })` — `T`'s wire form is a struct of the listed
///   fields, written in the listed order under their own names. Each
///   field decodes through its own type's `Deserialize`, so the list names
///   fields and nothing else. A field left out of the list does not
///   compile (the decoder builds `T { .. }` from exactly these fields).
/// * `fields!(T { a, b }, check = f)` — as above, then the decoded value
///   must pass `f: fn(&T) -> Result<(), E>` (`E: Display`), whose error
///   becomes the deserializer's.
/// * `fields!(T as str)` — `T` travels as the string of its `Display`
///   impl and decodes through its `FromStr` impl.
#[macro_export]
macro_rules! fields {
    ($ty:ident { $($field:ident),+ $(,)? } $(, check = $check:path)?) => {
        impl $crate::Serialize for $ty {
            fn serialize<S: $crate::Serializer>(
                &self,
                serializer: S,
            ) -> ::core::result::Result<S::Ok, S::Error> {
                use $crate::ser::SerializeStruct as _;
                let len = [$(stringify!($field)),+].len();
                let mut st = serializer.serialize_struct(stringify!($ty), len)?;
                $(st.serialize_field(stringify!($field), &self.$field)?;)+
                st.end()
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                d: D,
            ) -> ::core::result::Result<$ty, D::Error> {
                let value = $ty {
                    $($field: $crate::Deserialize::deserialize(
                        d.clone().take_field(stringify!($field))?,
                    )?,)+
                };
                $($check(&value).map_err(<D::Error as $crate::de::Error>::custom)?;)?
                Ok(value)
            }
        }
    };
    ($ty:ident as str) => {
        impl $crate::Serialize for $ty {
            fn serialize<S: $crate::Serializer>(
                &self,
                serializer: S,
            ) -> ::core::result::Result<S::Ok, S::Error> {
                serializer.serialize_str(&self.to_string())
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                d: D,
            ) -> ::core::result::Result<$ty, D::Error> {
                d.take_str()?
                    .parse()
                    .map_err(<D::Error as $crate::de::Error>::custom)
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Blanket impls for the std types the workspace serializes.
// ---------------------------------------------------------------------------

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bool(*self)
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(*self)
    }
}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_u64(*self as u64)
            }
        }
    )*};
}
impl_serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_i64(*self as i64)
            }
        }
    )*};
}
impl_serialize_int!(i8, i16, i32, i64, isize);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => serializer.serialize_some(v),
            None => serializer.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use ser::SerializeSeq as _;
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for item in self {
            seq.serialize_element(item)?;
        }
        seq.end()
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<String, D::Error> {
        deserializer.take_str()
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<bool, D::Error> {
        deserializer.take_bool()
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<f64, D::Error> {
        deserializer.take_f64()
    }
}

macro_rules! impl_deserialize_uint {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$t, D::Error> {
                let v = deserializer.take_u64()?;
                <$t>::try_from(v).map_err(|_| de_overflow::<D::Error>(v))
            }
        }
    )*};
}
impl_deserialize_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_deserialize_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$t, D::Error> {
                let v = deserializer.take_i64()?;
                <$t>::try_from(v).map_err(|_| de_overflow::<D::Error>(v))
            }
        }
    )*};
}
impl_deserialize_int!(i8, i16, i32, i64, isize);

fn de_overflow<E: de::Error>(v: impl Display) -> E {
    E::custom(format!("integer {v} out of range for target type"))
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Option<T>, D::Error> {
        match deserializer.take_option()? {
            Some(inner) => T::deserialize(inner).map(Some),
            None => Ok(None),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Vec<T>, D::Error> {
        deserializer
            .take_seq()?
            .into_iter()
            .map(T::deserialize)
            .collect()
    }
}
