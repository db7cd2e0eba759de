//! Binary codec primitives for the persistence layer.
//!
//! Little-endian, length-prefixed, no external dependencies. Every
//! decode is bounds-checked and returns [`PersistError::Corrupt`] on
//! underrun or malformed content — the registry must never panic on
//! stored bytes.

use qasom_ontology::Iri;
use qasom_qos::{PropertyId, QosVector};

use crate::service::{Operation, ServiceDescription};

use super::PersistError;

/// CRC32 (IEEE, reflected polynomial `0xEDB88320`) lookup table,
/// computed at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) of `bytes` — the checksum used by WAL record framing
/// and snapshot blobs.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an IRI in its canonical `ns#local` text form.
pub fn put_iri(out: &mut Vec<u8>, iri: &Iri) {
    put_str(out, &iri.to_string());
}

/// Appends a QoS vector as `count · (property index, value)` pairs in
/// ascending property order (the vector's own iteration order), so the
/// encoding is canonical.
pub fn put_qos(out: &mut Vec<u8>, qos: &QosVector) {
    put_u32(out, qos.len() as u32);
    for (property, value) in qos.iter() {
        put_u32(out, property.index() as u32);
        put_f64(out, value);
    }
}

/// Bounds-checked cursor over stored bytes.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Corrupt(format!(
                "short read: {what} needs {n} bytes, {} remain at offset {}",
                self.remaining(),
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on underrun (as for all `get_*`).
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on underrun.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let raw = self.take(4, "u32")?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(raw);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on underrun.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let raw = self.take(8, "u64")?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on underrun.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on underrun or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let len = self.get_u32()? as usize;
        let raw = self.take(len, "string body")?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| PersistError::Corrupt(format!("stored string is not UTF-8: {e}")))
    }

    /// Reads a length-prefixed IRI in `ns#local` text form.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on underrun or a malformed IRI.
    pub fn get_iri(&mut self) -> Result<Iri, PersistError> {
        let text = self.get_str()?;
        text.parse()
            .map_err(|e| PersistError::Corrupt(format!("stored IRI {text:?} malformed: {e}")))
    }

    /// Reads a QoS vector written by [`put_qos`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on underrun.
    pub fn get_qos(&mut self) -> Result<QosVector, PersistError> {
        let count = self.get_u32()?;
        let mut qos = QosVector::new();
        for _ in 0..count {
            let index = self.get_u32()? as usize;
            let value = self.get_f64()?;
            qos.set(PropertyId::from_index(index), value);
        }
        Ok(qos)
    }
}

fn put_operation(out: &mut Vec<u8>, op: &Operation) {
    put_str(out, op.name());
    put_iri(out, op.function());
    put_qos(out, op.qos());
}

fn get_operation(r: &mut ByteReader<'_>) -> Result<Operation, PersistError> {
    let name = r.get_str()?;
    let function = r.get_iri()?;
    let qos = r.get_qos()?;
    Ok(Operation::from_parts(name, function, qos))
}

/// Serialises a full service description (black-box profile plus any
/// white-box operations and host binding).
pub fn put_description(out: &mut Vec<u8>, desc: &ServiceDescription) {
    put_str(out, desc.name());
    put_str(out, desc.provider());
    put_iri(out, desc.function());
    put_u32(out, desc.inputs().len() as u32);
    for iri in desc.inputs() {
        put_iri(out, iri);
    }
    put_u32(out, desc.outputs().len() as u32);
    for iri in desc.outputs() {
        put_iri(out, iri);
    }
    put_qos(out, desc.qos());
    put_u32(out, desc.operations().len() as u32);
    for op in desc.operations() {
        put_operation(out, op);
    }
    match desc.host() {
        Some(node) => {
            out.push(1);
            put_u64(out, node);
        }
        None => out.push(0),
    }
}

/// Decodes a service description written by [`put_description`].
///
/// # Errors
///
/// [`PersistError::Corrupt`] on underrun, invalid UTF-8 or a malformed
/// stored IRI.
pub fn get_description(r: &mut ByteReader<'_>) -> Result<ServiceDescription, PersistError> {
    let name = r.get_str()?;
    let provider = r.get_str()?;
    let function = r.get_iri()?;
    let n_inputs = r.get_u32()?;
    let mut inputs = Vec::with_capacity(n_inputs.min(1024) as usize);
    for _ in 0..n_inputs {
        inputs.push(r.get_iri()?);
    }
    let n_outputs = r.get_u32()?;
    let mut outputs = Vec::with_capacity(n_outputs.min(1024) as usize);
    for _ in 0..n_outputs {
        outputs.push(r.get_iri()?);
    }
    let qos = r.get_qos()?;
    let n_ops = r.get_u32()?;
    let mut operations = Vec::with_capacity(n_ops.min(1024) as usize);
    for _ in 0..n_ops {
        operations.push(get_operation(r)?);
    }
    let host = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_u64()?),
        tag => {
            return Err(PersistError::Corrupt(format!(
                "bad host tag {tag} in stored description"
            )))
        }
    };
    Ok(ServiceDescription::from_parts(
        name, provider, function, inputs, outputs, qos, operations, host,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::QosModel;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX - 3);
        put_f64(&mut out, -1.5);
        put_str(&mut out, "héllo");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), -1.5);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn underrun_is_a_typed_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn description_round_trips_with_all_fields() {
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let desc = ServiceDescription::new("books", "shop#BuyBook")
            .with_provider("fnac")
            .with_input("shop#BookTitle")
            .with_output("shop#Receipt")
            .with_qos(rt, 120.0)
            .with_operation(Operation::new("pay", "shop#Pay").with_qos(rt, 30.0))
            .with_host(3);
        let mut out = Vec::new();
        put_description(&mut out, &desc);
        let mut r = ByteReader::new(&out);
        let back = get_description(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, desc);
    }

    #[test]
    fn minimal_description_round_trips() {
        let desc = ServiceDescription::new("s", "d#F");
        let mut out = Vec::new();
        put_description(&mut out, &desc);
        let back = get_description(&mut ByteReader::new(&out)).unwrap();
        assert_eq!(back, desc);
    }
}
